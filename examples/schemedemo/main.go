// Schemedemo embeds the STING Scheme system — the paper's computation
// language — and runs concurrency programs written in the dialect itself:
// futures primes (Fig. 3), a tuple-space atomic counter (§4.2's get/put
// idiom), speculative wait-for-one, and thread-group termination (§3.1).
package main

import (
	"fmt"
	"log"
	"os"

	sting "repro"
	"repro/internal/scheme"
	_ "repro/internal/vm" // registers the "vm" bytecode engine (the default)
)

const futuresPrimes = `
;; Fig. 3: result-parallel primes with future/touch.
(define (primes limit)
  (let loop ((i 3) (ps (future (list 2))))
    (cond ((> i limit) (touch ps))
          (else (loop (+ i 2) (future (filter-prime i ps)))))))
(define (filter-prime n ps)
  (let ((lst (touch ps)))
    (let loop ((j lst))
      (cond ((null? j) (append lst (list n)))
            ((> (* (car j) (car j)) n) (append lst (list n)))
            ((zero? (modulo n (car j))) lst)
            (else (loop (cdr j)))))))
(display "primes to 100: ") (display (primes 100)) (newline)`

const tupleCounter = `
;; §4.2: the atomic counter idiom — (get TS [?x] (put TS [(+ x 1)])).
(define ts (make-tuple-space))
(put ts '(0))
(define (bump-n n)
  (if (zero? n)
      'done
      (begin (get ts (?x) (put ts (list (+ x 1)))) (bump-n (- n 1)))))
(define workers
  (map (lambda (i) (fork-thread (bump-n 50) i)) (iota (vm-vp-count))))
(for-each thread-wait workers)
(display "counter after workers: ")
(get ts (?x) (display x)) (newline)`

const speculation = `
;; §4.3: OR-parallelism — first completion wins, the rest terminate.
(define (spin) (begin (yield-processor) (spin)))
(define slow (fork-thread (spin) 1))
(define fast (fork-thread (begin (yield-processor) 'found)))
(display "wait-for-one: ") (display (wait-for-one slow fast)) (newline)`

const groups = `
;; §3.1: genealogy — kill-group terminates a thread's subtree.
(define (spin) (begin (yield-processor) (spin)))
(define child #f)
(define parent (fork-thread (begin (set! child (fork-thread (spin))) (spin))))
(let wait () (unless child (yield-processor) (wait)))
(kill-group (thread-group parent))
(thread-wait child)
(display "child after kill-group: ") (display (thread-state child)) (newline)
(thread-terminate parent)`

func main() {
	m := sting.NewMachine(sting.MachineConfig{Processors: 4})
	defer m.Shutdown()
	vm, err := m.NewVM(sting.VMConfig{Name: "scheme", VPs: 4})
	if err != nil {
		log.Fatal(err)
	}
	in := scheme.New(vm, scheme.WithOutput(os.Stdout))

	for _, prog := range []struct{ name, src string }{
		{"Fig. 3 futures primes", futuresPrimes},
		{"§4.2 tuple-space counter", tupleCounter},
		{"§4.3 wait-for-one", speculation},
		{"§3.1 thread groups", groups},
	} {
		fmt.Printf("--- %s ---\n", prog.name)
		if _, err := in.EvalString(prog.src); err != nil {
			log.Fatalf("%s: %v", prog.name, err)
		}
	}

	s := vm.Stats()
	fmt.Printf("--- VM stats: threads=%d steals=%d switches=%d blocks=%d ---\n",
		s.ThreadsCreated, s.Steals, s.VPs.Switches, s.VPs.Blocks)
}
