package tsdb

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// An SLO objective is one declarative assertion over the time-series
// store, written in a one-line-per-objective syntax:
//
//	<name>: <metric>[{k=v,…}] <agg> <op> <threshold> [of <metric>] over <window> [budget <pct>]
//
//	get-latency:  remote.get p99 < 2ms over 60s
//	abort-ratio:  sting_stm_aborts_total rate < 5% of sting_stm_commits_total over 60s
//	steal-rate:   sting_vp_steals_total rate < 10000/s over 30s
//	runq-depth:   sting_vp_runq_depth value < 128 over 10s budget 99.9%
//
// agg is one of p50/p90/p95/p99 (histogram quantile over the trailing
// window), max/mean (ditto), rate (counter per-second rate, reset-safe),
// or value (gauge, newest sample). `of` turns a rate into a ratio of two
// rates — the only place a % threshold makes sense. `remote.<op>`,
// `client.<op>`, and `stm.commit` are aliases for the corresponding
// latency histogram families. Lines starting with # and blank lines are
// skipped; objectives may also be ;-separated on one line.
//
// Labels match exactly, and the node label picks the scope: stingtop
// stores each node's series with node=<id> and one cluster series (the
// nodes' sum or merged histogram) without it, so `remote.put p99` judges
// the whole cluster and `remote.put{node=n1} p99` one node.

// SLOState is an objective's evaluated condition.
type SLOState int

// States, ordered by severity (the rollup takes the max).
const (
	StateNoData SLOState = iota - 1 // not enough samples in the window yet
	StateOK
	StateWarn
	StateBreach
)

func (s SLOState) String() string {
	switch s {
	case StateNoData:
		return "nodata"
	case StateOK:
		return "ok"
	case StateWarn:
		return "warn"
	case StateBreach:
		return "breach"
	default:
		return fmt.Sprintf("SLOState(%d)", int(s))
	}
}

// ParseSLOState is the inverse of SLOState.String; unknown strings parse
// as nodata.
func ParseSLOState(s string) SLOState {
	switch s {
	case "ok":
		return StateOK
	case "warn":
		return StateWarn
	case "breach":
		return StateBreach
	default:
		return StateNoData
	}
}

// WorstState folds statuses into the rollup state: the maximum severity,
// with nodata only surfacing when nothing has data at all.
func WorstState(statuses []Status) SLOState {
	worst := StateNoData
	for _, s := range statuses {
		if st := ParseSLOState(s.State); st > worst {
			worst = st
		}
	}
	return worst
}

// WarnRatio is how close to the threshold a value must get (as a fraction
// of the threshold, in the breaching direction) before the state turns
// warn: 0.8 means warn at 80% of the way there.
const WarnRatio = 0.8

// budgetRing caps how many evaluation outcomes feed the error-budget
// accounting: at stingtop's default 2s refresh this is ~17 minutes of
// history.
const budgetRing = 512

// selector names one series: a metric family plus exact labels.
type selector struct {
	Name   string
	Labels []obs.Label
}

func (s selector) String() string { return seriesKey(s.Name, s.Labels) }

// Objective is one parsed SLO rule.
type Objective struct {
	Name      string
	Expr      string // the raw rule text, echoed in stingtop's report
	Metric    selector
	Agg       string // p50 p90 p95 p99 max mean rate value
	Op        string // < <= > >=
	Threshold float64
	Denom     *selector // rate ratio denominator (nil: plain)
	Window    time.Duration
	// Budget is the target compliance fraction (0.99 = 99%): the error
	// budget is 1-Budget of evaluations allowed to breach.
	Budget float64
}

// Status is one objective's evaluated state, one row of stingtop's report.
type Status struct {
	Name          string    `json:"name"`
	Expr          string    `json:"expr"`
	State         string    `json:"state"`
	Value         float64   `json:"value"`
	Threshold     float64   `json:"threshold"`
	WindowSeconds float64   `json:"window_s"`
	EvalsTotal    uint64    `json:"evals_total"`
	BreachesTotal uint64    `json:"breaches_total"`
	BudgetTarget  float64   `json:"budget_target"`
	BudgetBurn    float64   `json:"budget_burn"`
	LastEval      time.Time `json:"last_eval"`
}

// aliases expand the short metric names the syntax examples use.
func expandAlias(name string) selector {
	if op, ok := strings.CutPrefix(name, "remote."); ok {
		return selector{Name: "sting_remote_op_latency_seconds", Labels: []obs.Label{obs.L("op", op)}}
	}
	if op, ok := strings.CutPrefix(name, "client."); ok {
		return selector{Name: "sting_remote_client_op_latency_seconds", Labels: []obs.Label{obs.L("op", op)}}
	}
	if name == "stm.commit" {
		return selector{Name: "sting_stm_commit_latency_seconds"}
	}
	return selector{Name: name}
}

// parseSelector reads `metric` or `metric{k=v,k2="v2"}`.
func parseSelector(tok string) (selector, error) {
	brace := strings.IndexByte(tok, '{')
	if brace < 0 {
		return expandAlias(tok), nil
	}
	if !strings.HasSuffix(tok, "}") {
		return selector{}, fmt.Errorf("unterminated label set in %q", tok)
	}
	sel := expandAlias(tok[:brace])
	body := tok[brace+1 : len(tok)-1]
	for _, pair := range strings.Split(body, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return selector{}, fmt.Errorf("bad label %q in %q (want k=v)", pair, tok)
		}
		v = strings.Trim(strings.TrimSpace(v), `"`)
		sel.Labels = append(sel.Labels, obs.L(strings.TrimSpace(k), v))
	}
	return sel, nil
}

// parseThreshold accepts a duration (2ms → seconds), a percentage
// (5% → 0.05), a rate (100/s → 100), or a bare float.
func parseThreshold(tok string) (float64, error) {
	if v, ok := strings.CutSuffix(tok, "%"); ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("bad percentage %q", tok)
		}
		return f / 100, nil
	}
	if v, ok := strings.CutSuffix(tok, "/s"); ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("bad rate %q", tok)
		}
		return f, nil
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return f, nil
	}
	if d, err := time.ParseDuration(tok); err == nil {
		return d.Seconds(), nil
	}
	return 0, fmt.Errorf("bad threshold %q (want a number, duration, percentage, or N/s)", tok)
}

var validAggs = map[string]bool{
	"p50": true, "p90": true, "p95": true, "p99": true,
	"max": true, "mean": true, "rate": true, "value": true,
}

// ParseObjective parses one `name: expr` rule.
func ParseObjective(line string) (*Objective, error) {
	name, expr, ok := strings.Cut(line, ":")
	if !ok {
		return nil, fmt.Errorf("slo: rule %q needs a name (want \"name: metric agg op threshold over window\")", line)
	}
	name = strings.TrimSpace(name)
	expr = strings.TrimSpace(expr)
	if name == "" || expr == "" {
		return nil, fmt.Errorf("slo: rule %q has an empty name or body", line)
	}
	o := &Objective{Name: name, Expr: expr, Window: 60 * time.Second, Budget: 0.99}
	fields := strings.Fields(expr)
	if len(fields) < 4 {
		return nil, fmt.Errorf("slo %s: want \"metric agg op threshold [of metric] over window [budget pct]\", got %q", name, expr)
	}
	sel, err := parseSelector(fields[0])
	if err != nil {
		return nil, fmt.Errorf("slo %s: %v", name, err)
	}
	o.Metric = sel
	o.Agg = fields[1]
	if !validAggs[o.Agg] {
		return nil, fmt.Errorf("slo %s: unknown aggregation %q (want p50/p90/p95/p99/max/mean/rate/value)", name, o.Agg)
	}
	o.Op = fields[2]
	switch o.Op {
	case "<", "<=", ">", ">=":
	default:
		return nil, fmt.Errorf("slo %s: unknown comparison %q (want < <= > >=)", name, o.Op)
	}
	o.Threshold, err = parseThreshold(fields[3])
	if err != nil {
		return nil, fmt.Errorf("slo %s: %v", name, err)
	}
	rest := fields[4:]
	for len(rest) > 0 {
		switch rest[0] {
		case "of":
			if len(rest) < 2 {
				return nil, fmt.Errorf("slo %s: dangling \"of\"", name)
			}
			if o.Agg != "rate" {
				return nil, fmt.Errorf("slo %s: \"of\" (rate ratio) requires the rate aggregation, not %q", name, o.Agg)
			}
			d, err := parseSelector(rest[1])
			if err != nil {
				return nil, fmt.Errorf("slo %s: %v", name, err)
			}
			o.Denom = &d
			rest = rest[2:]
		case "over":
			if len(rest) < 2 {
				return nil, fmt.Errorf("slo %s: dangling \"over\"", name)
			}
			w, err := time.ParseDuration(rest[1])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("slo %s: bad window %q", name, rest[1])
			}
			o.Window = w
			rest = rest[2:]
		case "budget":
			if len(rest) < 2 {
				return nil, fmt.Errorf("slo %s: dangling \"budget\"", name)
			}
			pct, err := parseThreshold(rest[1])
			if err != nil || pct <= 0 || pct >= 1 {
				return nil, fmt.Errorf("slo %s: bad budget %q (want a compliance percentage like 99.9%%)", name, rest[1])
			}
			o.Budget = pct
			rest = rest[2:]
		default:
			return nil, fmt.Errorf("slo %s: unexpected token %q", name, rest[0])
		}
	}
	if o.Denom == nil && o.Agg == "rate" && strings.HasSuffix(fields[3], "%") {
		return nil, fmt.Errorf("slo %s: a %% threshold on a rate needs \"of <metric>\" to name the denominator", name)
	}
	return o, nil
}

// ParseObjectives parses a whole rule document: one rule per line (or
// ;-separated), # comments and blank lines skipped.
func ParseObjectives(src string) ([]*Objective, error) {
	var out []*Objective
	seen := make(map[string]bool)
	for _, line := range strings.FieldsFunc(src, func(r rune) bool { return r == '\n' || r == ';' }) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		o, err := ParseObjective(line)
		if err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
		out = append(out, o)
	}
	return out, nil
}

// sloTrack is one objective's mutable evaluation state.
type sloTrack struct {
	obj      *Objective
	evals    uint64
	breaches uint64
	ring     [budgetRing]bool // true = breached
	ringN    int
	ringHead int
}

// SLOEngine evaluates objectives against a Store; stingtop re-evaluates
// after every scrape round. All methods are safe for concurrent use.
type SLOEngine struct {
	mu     sync.Mutex
	tracks []*sloTrack
}

// NewSLOEngine builds an engine over the parsed objectives.
func NewSLOEngine(objectives []*Objective) *SLOEngine {
	e := &SLOEngine{}
	for _, o := range objectives {
		e.tracks = append(e.tracks, &sloTrack{obj: o})
	}
	return e
}

// measure computes an objective's current value from the store.
func measure(o *Objective, st *Store) (float64, bool) {
	switch o.Agg {
	case "rate":
		num, ok := st.Rate(o.Metric.Name, o.Metric.Labels, o.Window)
		if !ok {
			return 0, false
		}
		if o.Denom == nil {
			return num, true
		}
		den, ok := st.Rate(o.Denom.Name, o.Denom.Labels, o.Window)
		if !ok {
			return 0, false
		}
		if den <= 0 {
			if num <= 0 {
				return 0, true
			}
			return 1e12, true // all numerator, no denominator: maximally bad
		}
		return num / den, true
	case "value":
		return st.GaugeStats(o.Metric.Name, o.Metric.Labels)
	default: // histogram aggregations
		snap, ok := st.WindowHistogram(o.Metric.Name, o.Metric.Labels, o.Window)
		if !ok || snap.Count == 0 {
			return 0, false
		}
		switch o.Agg {
		case "p50":
			return snap.Quantile(0.50), true
		case "p90":
			return snap.Quantile(0.90), true
		case "p95":
			return snap.Quantile(0.95), true
		case "p99":
			return snap.Quantile(0.99), true
		case "max":
			return snap.Quantile(1), true
		case "mean":
			return snap.Sum / float64(snap.Count), true
		}
	}
	return 0, false
}

// classify turns a measured value into a state: breach when the
// comparison fails, warn when the value is past WarnRatio of the way to
// the threshold, ok otherwise.
func classify(o *Objective, v float64) SLOState {
	holds := false
	switch o.Op {
	case "<":
		holds = v < o.Threshold
	case "<=":
		holds = v <= o.Threshold
	case ">":
		holds = v > o.Threshold
	case ">=":
		holds = v >= o.Threshold
	}
	if !holds {
		return StateBreach
	}
	switch o.Op {
	case "<", "<=":
		if o.Threshold > 0 && v >= o.Threshold*WarnRatio {
			return StateWarn
		}
	case ">", ">=":
		if o.Threshold > 0 && v <= o.Threshold/WarnRatio {
			return StateWarn
		}
	}
	return StateOK
}

// Evaluate re-measures every objective at now and returns the statuses.
// nodata ticks do not consume error budget.
func (e *SLOEngine) Evaluate(now time.Time, st *Store) []Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, 0, len(e.tracks))
	for _, t := range e.tracks {
		o := t.obj
		v, ok := measure(o, st)
		state := StateNoData
		if ok {
			state = classify(o, v)
			t.evals++
			breached := state == StateBreach
			if breached {
				t.breaches++
			}
			if t.ringN < budgetRing {
				t.ring[(t.ringHead+t.ringN)%budgetRing] = breached
				t.ringN++
			} else {
				t.ring[t.ringHead] = breached
				t.ringHead = (t.ringHead + 1) % budgetRing
			}
		}
		burn := 0.0
		if t.ringN > 0 {
			bad := 0
			for i := 0; i < t.ringN; i++ {
				if t.ring[(t.ringHead+i)%budgetRing] {
					bad++
				}
			}
			frac := float64(bad) / float64(t.ringN)
			allowed := 1 - o.Budget
			if allowed <= 0 {
				allowed = 1e-9
			}
			burn = frac / allowed
		}
		out = append(out, Status{
			Name: o.Name, Expr: o.Expr, State: state.String(), Value: v,
			Threshold: o.Threshold, WindowSeconds: o.Window.Seconds(),
			EvalsTotal: t.evals, BreachesTotal: t.breaches,
			BudgetTarget: o.Budget, BudgetBurn: burn, LastEval: now,
		})
	}
	return out
}
