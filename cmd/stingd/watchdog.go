package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
)

// startWatchdog runs a scheduler heartbeat: every interval it spawns a
// trivial STING thread and waits up to one interval for it to run to
// completion. A heartbeat that cannot get scheduled within a full period
// means the VM's virtual processors are wedged (all VPs spinning in
// native code, a livelocked steal storm, or a substrate bug) — exactly
// the failure /metrics cannot report because the counters stop moving.
// On a missed beat the watchdog records the stall and dumps the flight
// recorder to stderr, then keeps beating so recovery is observed too.
func startWatchdog(vm *core.VM, d *diag.Diagnoser, interval time.Duration, stop <-chan struct{}) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		wedged := false
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			th := vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
				return nil, nil
			}, core.WithName("diag-heartbeat"))
			beat := make(chan struct{})
			go func() {
				core.JoinThread(th) //nolint:errcheck
				close(beat)
			}()
			select {
			case <-beat:
				if wedged {
					wedged = false
					d.Record("watchdog-ok", "", "", "heartbeat scheduled again", 0)
				}
			case <-time.After(interval):
				if !wedged {
					wedged = true
					d.WatchdogStall(fmt.Sprintf("heartbeat thread not scheduled within %v", interval))
					fmt.Fprintf(os.Stderr, "stingd: watchdog: heartbeat missed (%v) — dumping flight recorder\n", interval)
					if err := d.DumpJSON(os.Stderr); err != nil {
						fmt.Fprintln(os.Stderr, "stingd: watchdog dump:", err)
					}
				}
				// Wait the heartbeat out so wedged threads do not pile up.
				<-beat
			}
		}
	}()
}
