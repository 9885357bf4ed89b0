;; Takeuchi function: deep non-tail recursion with three-way argument shuffling.
(define (tak x y z)
  (if (not (< y x))
      z
      (tak (tak (- x 1) y z)
           (tak (- y 1) z x)
           (tak (- z 1) x y))))
(display (tak 14 9 4))
(newline)
