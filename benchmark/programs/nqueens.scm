;; Count the placements of n non-attacking queens: list allocation and
;; closures in a backtracking search.
(define (safe? col dist placed)
  (or (null? placed)
      (let ((q (car placed)))
        (and (not (= q col))
             (not (= (abs (- q col)) dist))
             (safe? col (+ dist 1) (cdr placed))))))
(define (place n row placed)
  (if (= row n)
      1
      (let loop ((col 0) (count 0))
        (if (= col n)
            count
            (loop (+ col 1)
                  (if (safe? col 1 placed)
                      (+ count (place n (+ row 1) (cons col placed)))
                      count))))))
(display (place 6 0 '()))
(newline)
