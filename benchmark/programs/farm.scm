;; Master/worker farm over a sharded cluster space (the paper's §4.2 shape,
;; routed). The harness defines *farm-spec* (a "cluster:id=addr,…" string),
;; *farm-workers* and *farm-tasks* (a list of (id n) pairs) before this loads.
(define farm (remote-open *farm-spec* "farm"))

;; A worker takes any task — the wildcard first field fans the get out to
;; every shard, first match wins — and deposits the result under the task's
;; id, which routes it to the id's owning shard. The get has no body, so it
;; answers the matched tuple as a list and the loop stays a tail call.
(define (farm-worker)
  (let loop ()
    (let* ((task (get farm (?id task ?n)))
           (id (car task))
           (n (caddr task)))
      (if (< n 0)
          'retired
          (begin
            (put farm (list id 'result (* n n)))
            (loop))))))

(define farm-threads
  (map (lambda (i) (fork-thread (farm-worker) i)) (iota *farm-workers*)))

;; One round: deposit every task keyed by its id, then collect each result by
;; id. The value is the sum of the results.
(define (farm-round tasks)
  (for-each (lambda (t) (put farm (list (car t) 'task (cadr t)))) tasks)
  (let loop ((ts tasks) (sum 0))
    (if (null? ts)
        sum
        (loop (cdr ts)
              (+ sum (caddr (get farm (,(car (car ts)) result ?sq))))))))

;; Poison one task per worker and wait for them. The harness hangs up
;; afterwards, from outside the VM: (remote-close) here would hold this VP
;; while the last fan-outs' cancelled branches still need it to drain.
(define (farm-retire)
  (for-each (lambda (i) (put farm (list (- -1 i) 'task -1))) (iota *farm-workers*))
  (for-each thread-wait farm-threads))
