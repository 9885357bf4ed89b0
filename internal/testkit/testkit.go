// Package testkit provides shared helpers for tests and benchmarks: booting
// a machine/VM pair with cleanup, running thunks synchronously, and small
// assertion utilities. It is test-support code, imported only from _test
// files and the benchmark harness.
package testkit

import (
	"testing"
	"time"

	"repro/internal/core"
)

// Machine boots a machine with the given processor count and registers
// shutdown with the test cleanup.
func Machine(t testing.TB, procs int) *core.Machine {
	t.Helper()
	m := core.NewMachine(core.MachineConfig{Processors: procs})
	t.Cleanup(m.Shutdown)
	return m
}

// VM boots a machine and a VM on it.
func VM(t testing.TB, procs, vps int) *core.VM {
	t.Helper()
	return VMOn(t, Machine(t, procs), vps)
}

// VMOn creates a VM with vps virtual processors on m.
func VMOn(t testing.TB, m *core.Machine, vps int) *core.VM {
	t.Helper()
	vm, err := m.NewVM(core.VMConfig{VPs: vps})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	return vm
}

// VMWith creates a VM with a custom config on a fresh machine.
func VMWith(t testing.TB, procs int, cfg core.VMConfig) *core.VM {
	t.Helper()
	m := Machine(t, procs)
	vm, err := m.NewVM(cfg)
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	return vm
}

// RunFresh boots a machine of its own, runs body on a root thread of a
// vps-wide VM, and shuts the machine down before returning rather than at
// cleanup. Benchmarks want that: testing.B calls a benchmark once per b.N it
// tries, and the idle processors of earlier rounds would otherwise poll
// beside the round being timed.
func RunFresh(t testing.TB, procs, vps int, body func(vm *core.VM, ctx *core.Context) error) {
	t.Helper()
	m := core.NewMachine(core.MachineConfig{Processors: procs})
	defer m.Shutdown()
	vm := VMOn(t, m, vps)
	RunIn(t, vm, func(ctx *core.Context) error { return body(vm, ctx) })
}

// Run runs thunk as a root thread and fails the test on error.
func Run(t testing.TB, vm *core.VM, thunk core.Thunk) []core.Value {
	t.Helper()
	vals, err := vm.Run(thunk)
	if err != nil {
		t.Fatalf("vm.Run: %v", err)
	}
	return vals
}

// RunIn runs a body that returns no values.
func RunIn(t testing.TB, vm *core.VM, body func(ctx *core.Context) error) {
	t.Helper()
	_, err := vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		return nil, body(ctx)
	})
	if err != nil {
		t.Fatalf("vm.Run: %v", err)
	}
}

// One wraps a single value as a thunk result.
func One(v core.Value) []core.Value { return []core.Value{v} }

// Eventually polls cond until it holds or the deadline passes.
func Eventually(t testing.TB, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("condition never held: %s", msg)
}
