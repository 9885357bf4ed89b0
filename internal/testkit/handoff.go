package testkit

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// ParkHandoff checks that a thread parking or yielding answers the VP it
// leaves. Under a shared queue another VP can dequeue a thread the instant
// it is enqueued, before the thread has handed its old VP back. Pairs of
// threads spread over four VPs ping-pong through BlockUntil and Yield; a
// thread that answered the VP which picked it up instead of the one it is
// leaving would leave a PP loop waiting for ever, and Shutdown, which waits
// for every loop, would never return. A nil factory selects the default
// manager.
func ParkHandoff(t testing.TB, factory func(vp *core.VP) core.PolicyManager) {
	t.Helper()
	const vps, pairs, rounds = 4, 4, 1000
	m := core.NewMachine(core.MachineConfig{Processors: 2})
	vm, err := m.NewVM(core.VMConfig{VPs: vps, PolicyFactory: factory})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := vm.Run(func(ctx *core.Context) ([]core.Value, error) {
			kids := make([]*core.Thread, 0, 2*pairs)
			for p := 0; p < pairs; p++ {
				var turn atomic.Int64
				var tcbs [2]atomic.Pointer[core.TCB]
				for side := int64(0); side < 2; side++ {
					kids = append(kids, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
						tcbs[side].Store(c.TCB())
						for r := 0; r < rounds; r++ {
							c.BlockUntil(func() bool { return turn.Load()%2 == side })
							turn.Add(1)
							if peer := tcbs[1-side].Load(); peer != nil {
								core.WakeTCB(peer)
							}
							c.Yield()
						}
						return nil, nil
					}, vm.VP(len(kids)%vps)))
				}
			}
			for _, k := range kids {
				if _, err := ctx.Value1(k); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		m.Shutdown()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("vm.Run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run or Shutdown stalled: a VP is waiting on a thread that answered another VP")
	}
}
