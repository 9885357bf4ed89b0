// Masterslave is the §4.2 worker-farm pattern: a master deposits task
// tuples into a first-class tuple space, a bounded pool of long-lived
// workers removes tasks and publishes result tuples, and the master
// collates them. Two scheduling regimes run, reproducing the §3.3 guidance:
// a global FIFO queue (the paper's recommendation for master/slave — the
// workers rarely block and spawn nothing, so per-VP queues buy nothing) and
// the default local LIFO regime for contrast. A final round builds a
// tuple space as a semaphore, §4.2's representation specialization.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	sting "repro"
)

// remoteFarm runs the same worker-farm pattern across processes: task and
// result tuples live in a stingd server's "tasks"/"results" spaces, the
// master and the slaves are separate OS processes coordinating only
// through the fabric. Slave workers are STING threads on a local VM whose
// blocking remote Gets park through the substrate while the fabric client
// waits on the wire.
func remoteFarm(addr, role string, tasks, workers int) error {
	m := sting.NewMachine(sting.MachineConfig{})
	defer m.Shutdown()
	vm, err := m.NewVM(sting.VMConfig{Name: "masterslave-" + role})
	if err != nil {
		return err
	}
	c, err := sting.DialRemote(nil, addr, sting.RemoteDialConfig{})
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck
	taskSp, resultSp := c.Space("tasks"), c.Space("results")
	start := time.Now()

	switch role {
	case "master":
		_, err = vm.Run(func(ctx *sting.Context) ([]sting.Value, error) {
			for i := 0; i < tasks; i++ {
				if err := taskSp.Put(ctx, sting.Tuple{"task", 1_000_003 + i}); err != nil {
					return nil, err
				}
			}
			fmt.Printf("master: %d tasks deposited, collating\n", tasks)
			totalFactors := 0
			for i := 0; i < tasks; i++ {
				_, bind, err := resultSp.Get(ctx,
					sting.Template{"result", sting.Formal("n"), sting.Formal("k")})
				if err != nil {
					return nil, err
				}
				totalFactors += int(bind["k"].(int64))
			}
			for w := 0; w < workers; w++ { // poison the slave pool
				if err := taskSp.Put(ctx, sting.Tuple{"task", -1}); err != nil {
					return nil, err
				}
			}
			fmt.Printf("master: %d results, %d factors total, %v\n",
				tasks, totalFactors, time.Since(start).Round(time.Millisecond))
			return nil, nil
		})
		return err
	case "slave":
		_, err = vm.Run(func(ctx *sting.Context) ([]sting.Value, error) {
			pool := make([]*sting.Thread, workers)
			for w := range pool {
				pool[w] = ctx.Fork(func(cc *sting.Context) ([]sting.Value, error) {
					done := 0
					for {
						_, bind, err := taskSp.Get(cc, sting.Template{"task", sting.Formal("n")})
						if err != nil {
							return nil, err
						}
						n := int(bind["n"].(int64))
						if n < 0 {
							return []sting.Value{done}, nil
						}
						fs := factor(n)
						if err := resultSp.Put(cc, sting.Tuple{"result", n, len(fs)}); err != nil {
							return nil, err
						}
						done++
					}
				}, nil, sting.WithName(fmt.Sprintf("slave-%d", w)))
			}
			total := 0
			for _, t := range pool {
				v, err := ctx.Value1(t)
				if err != nil {
					return nil, err
				}
				total += v.(int)
			}
			fmt.Printf("slave: %d workers retired after %d tasks, %v\n",
				workers, total, time.Since(start).Round(time.Millisecond))
			return nil, nil
		})
		return err
	default:
		return fmt.Errorf("unknown -role %q (want master or slave)", role)
	}
}

// task: factor a number by trial division (deliberately compute-shaped).
func factor(n int) []int {
	var fs []int
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			fs = append(fs, p)
			n /= p
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

func farm(name string, pf func(vp *sting.VP) sting.PolicyManager, tasks, workers int) {
	m := sting.NewMachine(sting.MachineConfig{Processors: 4})
	defer m.Shutdown()
	vm, err := m.NewVM(sting.VMConfig{Name: name, VPs: 4, PolicyFactory: pf})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	vals, err := vm.Run(func(ctx *sting.Context) ([]sting.Value, error) {
		ts := sting.NewTupleSpace(sting.KindHash, sting.TupleSpaceConfig{Bins: 64})

		// The worker pool: bounded a priori, long-lived, rarely blocking.
		pool := make([]*sting.Thread, workers)
		for w := range pool {
			pool[w] = ctx.Fork(func(c *sting.Context) ([]sting.Value, error) {
				done := 0
				for {
					tup, bind, err := ts.Get(c, sting.Template{"task", sting.Formal("n")})
					if err != nil {
						return nil, err
					}
					_ = tup
					n := bind["n"].(int)
					if n < 0 { // poison pill
						return []sting.Value{done}, nil
					}
					fs := factor(n)
					if err := ts.Put(c, sting.Tuple{"result", n, len(fs)}); err != nil {
						return nil, err
					}
					done++
				}
			}, vm.VP(w), sting.WithName(fmt.Sprintf("worker-%d", w)))
		}

		// The master: deposit tasks, collate results, poison the pool.
		for i := 0; i < tasks; i++ {
			if err := ts.Put(ctx, sting.Tuple{"task", 1_000_003 + i}); err != nil {
				return nil, err
			}
		}
		totalFactors := 0
		for i := 0; i < tasks; i++ {
			_, bind, err := ts.Get(ctx, sting.Template{"result", sting.Formal("n"), sting.Formal("k")})
			if err != nil {
				return nil, err
			}
			totalFactors += bind["k"].(int)
		}
		for range pool {
			_ = ts.Put(ctx, sting.Tuple{"task", -1})
		}
		perWorker := make([]int, workers)
		for w, t := range pool {
			v, err := ctx.Value1(t)
			if err != nil {
				return nil, err
			}
			perWorker[w] = v.(int)
		}
		return []sting.Value{totalFactors, perWorker}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	s := vm.Stats()
	fmt.Printf("%-12s tasks=%d workers=%d factors=%v per-worker=%v  %8v  blocks=%d\n",
		name, tasks, workers, vals[0], vals[1],
		time.Since(start).Round(time.Microsecond), s.VPs.Blocks)
}

func main() {
	var (
		remoteAddr = flag.String("remote", "", "stingd address; run the farm over the networked fabric instead of in-process")
		role       = flag.String("role", "master", "with -remote: master (deposit tasks, collate) or slave (work loop)")
		nTasks     = flag.Int("tasks", 400, "with -remote -role master: tasks to deposit")
		nWorkers   = flag.Int("workers", 4, "worker threads (slave role) / poison pills (master role)")
	)
	flag.Parse()
	if *remoteAddr != "" {
		if err := remoteFarm(*remoteAddr, *role, *nTasks, *nWorkers); err != nil {
			log.Fatal(err)
		}
		return
	}

	const tasks, workers = 400, 4
	fmt.Println("§4.2 master/slave over a first-class tuple space:")
	farm("global-fifo", sting.GlobalFIFO(), tasks, workers)
	farm("local-lifo", sting.LocalLIFO(sting.LocalLIFOConfig{Migrate: true}), tasks, workers)

	// Representation specialization: a space that only ever holds
	// contentless tokens is built as a semaphore — the same operations over
	// a counter. Put is V, Get is P and Len is the count.
	m := sting.NewMachine(sting.MachineConfig{Processors: 2})
	defer m.Shutdown()
	vm, err := m.NewVM(sting.VMConfig{VPs: 2})
	if err != nil {
		log.Fatal(err)
	}
	_, err = vm.Run(func(ctx *sting.Context) ([]sting.Value, error) {
		tokens := sting.NewTupleSpace(sting.KindSemaphore, sting.TupleSpaceConfig{})
		for i := 0; i < 3; i++ {
			_ = tokens.Put(ctx, sting.Tuple{})
		}
		if _, _, err := tokens.Get(ctx, sting.Template{}); err != nil {
			return nil, err
		}
		fmt.Printf("%v space: 3 V, 1 P, count %d\n", tokens.Kind(), tokens.Len())
		return nil, nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
