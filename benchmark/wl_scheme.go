package main

import (
	"bytes"
	"embed"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/vm"
)

//go:embed programs
var programFS embed.FS

// program is one Scheme source with its hand-written expected output.
type program struct {
	name     string
	text     string
	expected string
}

func loadProgram(name string) (program, error) {
	text, err := programFS.ReadFile("programs/" + name + ".scm")
	if err != nil {
		return program{}, err
	}
	want, err := programFS.ReadFile("programs/" + name + ".expected")
	if err != nil {
		return program{}, err
	}
	return program{name: name, text: string(text), expected: string(want)}, nil
}

var computePrograms = []string{"fib", "tak", "nqueens", "mandel"}

// compute: one scheme.Interp on the default vm engine. One op is one pass:
// EvalString of the full text — defines and body, so read and compile are
// paid as `sting file.scm` users pay them — of each program, in a seeded
// order. The reader and vm compile/dispatch dominate; core, tspace and the
// wire idle.
type compute struct {
	m      *core.Machine
	vm     *core.VM
	in     *scheme.Interp
	out    bytes.Buffer
	progs  []program
	orders [][]int // seeded permutations, cycled
}

func setupCompute(e *env) (instance, error) {
	c := &compute{}
	for _, name := range computePrograms {
		p, err := loadProgram(name)
		if err != nil {
			return nil, err
		}
		if e.cfg.fault == "corrupt-expected" && name == "tak" {
			p.expected = "8" + p.expected[1:] // negative control
		}
		c.progs = append(c.progs, p)
	}
	for i := 0; i < 64; i++ {
		c.orders = append(c.orders, e.rng.Perm(len(c.progs)))
	}
	c.m = core.NewMachine(core.MachineConfig{Processors: e.nproc})
	v, err := c.m.NewVM(core.VMConfig{Name: "scheme_compute", VPs: e.nproc})
	if err != nil {
		c.m.Shutdown()
		return nil, err
	}
	c.vm = v
	c.in = scheme.New(v, scheme.WithOutput(&c.out))
	if got := c.in.EngineName(); got != "vm" {
		c.m.Shutdown()
		return nil, fmt.Errorf("scheme_compute: default engine is %q, want vm", got)
	}
	return c, nil
}

func (c *compute) shape() (int, int) { return 1, 1 }

// evalChecked evaluates p on in and compares what it printed with the
// hand-written expectation.
func evalChecked(in *scheme.Interp, out *bytes.Buffer, p program) error {
	out.Reset()
	if _, err := in.EvalString(p.text); err != nil {
		return fmt.Errorf("%s.scm: %w", p.name, err)
	}
	if got := out.String(); got != p.expected {
		return fmt.Errorf("%s.scm printed %q, %s.expected has %q", p.name, got, p.name, p.expected)
	}
	return nil
}

func (c *compute) run(ph *phase) error {
	rec, tr := ph.recs[0], ph.tr
	for op := int64(0); ph.live(); op++ {
		t0 := now()
		sOp := tr.begin(spOp, noSpan, op, 0)
		for _, i := range c.orders[op%int64(len(c.orders))] {
			s := tr.begin(spSchemeEval, sOp, int64(i), 0)
			err := evalChecked(c.in, &c.out, c.progs[i])
			tr.end(s)
			if err != nil {
				ph.fail("scheme_compute pass %d: %v", op, err)
				return nil
			}
		}
		tr.end(sOp)
		rec.add(t0)
		resetGroups(c.vm.RootGroup()) // drop the toplevel threads' records
	}
	return nil
}

func vmEngineCounters() metrics {
	compiled, fallback, dispatched := vm.Stats()
	return metrics{"vm_compiled": float64(compiled), "vm_fallback": float64(fallback), "vm_dispatched": float64(dispatched)}
}

func (c *compute) counters() metrics { return vmEngineCounters() }

// vmCounterMetrics fills the vm.* counter family from engine counter deltas
// over the traced pass.
func vmCounterMetrics(lp *layerPass) {
	lp.out["vm.compiled_forms"] = lp.perOp("vm_compiled")
	lp.out["vm.fallback_forms"] = lp.delta["vm_fallback"]
	lp.out["vm.dispatch_ops_per_s"] = lp.delta["vm_dispatched"] / lp.traced.elapsed.Seconds()
}

// probeSchemeFrontEnd measures the reader and the compiler alone on the
// given sources, and a cold interpreter build (prelude load) on v.
func probeSchemeFrontEnd(lp *layerPass, v *core.VM, texts []string) error {
	reps := lp.env.pick(50, 2)
	var bytesRead, forms int
	var readNS, compileNS int64
	for r := 0; r < reps; r++ {
		for _, text := range texts {
			t0 := now()
			data, err := scheme.ReadAll(text)
			readNS += now() - t0
			if err != nil {
				return err
			}
			bytesRead += len(text)
			for _, d := range data {
				t0 = now()
				_, err := vm.Compile(d)
				compileNS += now() - t0
				if err != nil {
					return fmt.Errorf("vm.Compile declined a benchmark form: %w", err)
				}
				forms++
			}
		}
	}
	lp.out["scheme.read_us_per_kb"] = float64(readNS) / 1e3 / (float64(bytesRead) / 1024)
	lp.out["vm.compile_us_per_form"] = float64(compileNS) / 1e3 / float64(forms)
	var loads []float64
	for i := 0; i < lp.env.pick(5, 1); i++ {
		t0 := time.Now()
		scheme.New(v, scheme.WithOutput(&bytes.Buffer{}))
		loads = append(loads, float64(time.Since(t0))/1e6)
	}
	lp.out["scheme.prelude_load_ms"] = median(loads)
	return nil
}

func (c *compute) layers(lp *layerPass) error {
	vmCounterMetrics(lp)
	var texts []string
	for _, p := range c.progs {
		texts = append(texts, p.text)
	}
	if err := probeSchemeFrontEnd(lp, c.vm, texts); err != nil {
		return err
	}

	// The tree-walker is the independent reference: it must print the same
	// expected text, and its time over the vm's is vm.tree_ratio.
	var out bytes.Buffer
	tree := scheme.New(c.vm, scheme.WithEngine(scheme.TreeEngineName), scheme.WithOutput(&out))
	if got := tree.EngineName(); got != scheme.TreeEngineName {
		return fmt.Errorf("reference engine is %q, want the tree-walker", got)
	}
	vmUS := make([][]float64, len(c.progs))
	for _, s := range lp.tr.recorded() {
		if s.name == spSchemeEval && s.end > s.start {
			vmUS[s.op] = append(vmUS[s.op], float64(s.end-s.start)/1e3)
		}
	}
	logRatio := 0.0
	for i, p := range c.progs {
		var treeUS []float64
		for r := 0; r < lp.env.pick(5, 1); r++ {
			t0 := now()
			err := evalChecked(tree, &out, p)
			t1 := now()
			if err != nil {
				return fmt.Errorf("tree-walker reference: %w", err)
			}
			lp.tr.add(spTreeEval, noSpan, int64(i), 1, t0, t1)
			treeUS = append(treeUS, float64(t1-t0)/1e3)
		}
		logRatio += math.Log(median(treeUS) / median(vmUS[i]))
	}
	lp.out["vm.tree_ratio"] = math.Exp(logRatio / float64(len(c.progs)))
	return nil
}

func (c *compute) close() error {
	live := liveThreads(c.vm)
	c.m.Shutdown()
	if live != 0 {
		return fmt.Errorf("scheme_compute: %d threads still live at shutdown", live)
	}
	return nil
}
