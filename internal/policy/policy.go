// Package policy provides the policy managers shipped with the substrate.
// A policy manager (PM) is what a virtual processor is closed over to
// obtain its scheduling, thread-placement, and migration regime (§3.3 of
// the paper); the thread controller never changes when the policy does.
//
// Every manager here is one of two mechanisms with its parameters set:
//
//   - a per-VP work-stealing queue (core.WorkStealing), built by LocalLIFO,
//     Unified and the substrate's default. It takes a dispatch order
//     (LIFO or FIFO), a yield rule (yielded threads go behind all ready
//     work, or back among the evaluating threads) and a steal switch
//     (idle VPs batch-steal from siblings, or not);
//   - one locked queue shared by all the VPs of a factory, ordered by a
//     key with ties broken by arrival, built by GlobalFIFO (arrival only),
//     RoundRobin (arrival, plus a default preemption quantum), Priority
//     (the thread's priority) and Realtime (the thread's deadline).
//
// The paper's classification dimensions map onto those parameters:
//
//	Locality:      per-VP (work stealing) or shared (one queue).
//	Granularity:   the work-stealing queue keeps evaluating threads (TCBs)
//	               apart from scheduled ones and never steals them; the
//	               yield rule picks whether yielded TCBs rejoin them
//	               (LocalLIFO) or wait behind all ready work (Unified). The
//	               shared queue treats all runnables alike.
//	Structure:     LIFO or FIFO dispatch; or the shared queue's key:
//	               arrival, priority, earliest deadline first.
//	Serialization: the work-stealing queue takes no lock (its owner pops,
//	               thieves CAS); the shared queue contends on one mutex by
//	               design.
//
// The guidance encoded follows the paper: LIFO local queues suit
// tree-structured result-parallel programs; round-robin preemptive global
// queues suit master/slave worker farms; priorities suit speculation;
// deadlines suit soft-realtime threads.
package policy

import "repro/internal/core"

// Factory builds one policy manager per VP. Shared-queue factories return
// the same manager to every VP. A Factory can be assigned to
// core.VMConfig.PolicyFactory as it is.
type Factory func(vp *core.VP) core.PolicyManager

// LocalLIFOConfig tunes the LocalLIFO factory.
type LocalLIFOConfig struct {
	// Migrate allows idle VPs to take scheduled threads from siblings.
	// Evaluating threads (TCBs) are never migrated under this manager —
	// the granularity constraint that lets the evaluating queue go
	// effectively unlocked.
	Migrate bool
	// FIFO dispatches scheduled threads oldest-first instead of LIFO
	// (used by the Fig. 4 steal-dynamics experiment, where FIFO order
	// suppresses stealing in the primes program).
	FIFO bool
}

// LocalLIFO returns the canonical result-parallel factory: per-VP
// work-stealing queues, LIFO dispatch (so tree-structured programs unfold
// depth-first and stealing is effective), optional idle-time batch migration
// of scheduled threads. Evaluating threads are dispatched first, however
// they re-entered the queue. This is the regime the paper recommends when
// many short threads exhibit strong data dependencies.
func LocalLIFO(cfg LocalLIFOConfig) Factory {
	return func(vp *core.VP) core.PolicyManager {
		return core.WorkStealing(vp, cfg.FIFO, false, cfg.Migrate)
	}
}

// Unified returns a factory whose managers keep a single per-VP queue of
// runnables — the paper's "single queue regardless of state" granularity
// choice, and the configuration its baseline timings were measured under
// ("timings were derived using a single LIFO queue"). With lifo set,
// dispatch takes the newest runnable; without it, dispatch is oldest-first
// round-robin. Either way yielding and preempted threads go behind all
// ready work, and idle siblings batch-steal. Unified(true) is the
// substrate's default manager.
func Unified(lifo bool) Factory {
	return func(vp *core.VP) core.PolicyManager {
		return core.WorkStealing(vp, !lifo, true, true)
	}
}
