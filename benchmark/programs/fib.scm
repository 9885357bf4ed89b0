;; Doubly recursive Fibonacci: procedure call, integer compare and add.
(define (fib n)
  (if (< n 2)
      n
      (+ (fib (- n 1)) (fib (- n 2)))))
(display (fib 19))
(newline)
