// Command stingtop is the cluster dashboard: it polls every node's
// existing /metrics endpoint (no new wire protocol) into one time-series
// store, keeps each node's series and their cluster sum side by side
// (histograms merged bucket by bucket into true cluster-wide quantiles),
// evaluates SLO objectives over that store, and renders a live terminal
// table — one row per node plus a rollup row — refreshed in place.
//
// Usage:
//
//	stingtop -nodes nodes.json              poll the nodes.json cluster map
//	                                        (each node's "http" field names
//	                                        its observability endpoint)
//	stingtop -nodes n1=:9091,n2=:9092       poll explicit obs endpoints
//	stingtop -interval 2s                   refresh period, and the window
//	                                        rates and quantiles cover
//	stingtop -slo slo.rules                 evaluate SLO objectives over the
//	                                        cluster series ({node=…} picks one
//	                                        node's) after every round
//	stingtop -once -json                    scrape twice -interval apart, print
//	                                        one JSON document, exit — the
//	                                        scripting/CI mode
//
// The cluster row's latency quantiles come from bucket-exact histogram
// merging (every node shares the same bucket bounds), so the cluster p99
// is the p99 of the union of observations — not an average of per-node
// p99s, which understates tail latency whenever shards are uneven.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs/tsdb"
)

func main() {
	var (
		nodesSpec = flag.String("nodes", "", "cluster: nodes.json path (uses each node's \"http\" field) or \"id=host:port,…\" of observability endpoints")
		interval  = flag.Duration("interval", 2*time.Second, "refresh period, the gap between -once's two scrapes, and the rate window")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-request scrape timeout")
		once      = flag.Bool("once", false, "scrape twice, print one report, exit")
		jsonOut   = flag.Bool("json", false, "print the report as JSON (implies -once)")
		sloSpec   = flag.String("slo", "", "SLO objectives: a rules file path or inline \"name: expr\" rules (;-separated), evaluated after every round")
	)
	flag.Parse()
	if *nodesSpec == "" {
		fmt.Fprintln(os.Stderr, "stingtop: -nodes is required (nodes.json or id=host:port,…)")
		os.Exit(2)
	}
	pollers, err := buildPollers(*nodesSpec, *timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stingtop: %v\n", err)
		os.Exit(2)
	}
	objectives, err := loadSLOSpec(*sloSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stingtop: %v\n", err)
		os.Exit(2)
	}
	t := newTop(pollers, objectives, *interval)
	if *jsonOut {
		*once = true
	}
	if *once {
		os.Exit(runOnce(t, *interval, *jsonOut))
	}
	runLive(t, *interval)
}

// loadSLOSpec resolves the -slo flag: an existing file is read as a rules
// document, anything else parses as inline rules.
func loadSLOSpec(spec string) ([]*tsdb.Objective, error) {
	if spec == "" {
		return nil, nil
	}
	if data, err := os.ReadFile(spec); err == nil {
		return tsdb.ParseObjectives(string(data))
	} else if strings.ContainsAny(spec, "/\\") || strings.HasSuffix(spec, ".slo") {
		// Looks like a path but is unreadable: surface the file error
		// instead of a confusing parse error on the path string.
		return nil, err
	}
	return tsdb.ParseObjectives(spec)
}

// buildPollers resolves the -nodes spec into one poller per node. A
// nodes.json map contributes every node that declares an "http" endpoint;
// the compact form treats each addr as the observability endpoint itself
// (with @http taking precedence when given).
func buildPollers(spec string, timeout time.Duration) ([]*poller, error) {
	m, err := cluster.Load(spec)
	if err != nil {
		return nil, err
	}
	var out []*poller
	for _, n := range m.Nodes() {
		ep := n.HTTP
		if ep == "" {
			ep = n.Addr
		}
		out = append(out, newPoller(n.ID, ep, timeout))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no nodes in %q", spec)
	}
	return out, nil
}

// runOnce scrapes twice `interval` apart (so rates have a denominator)
// and prints one report. Exit status 1 when any node is unreachable — CI
// smoke tests key off it.
func runOnce(t *top, interval time.Duration, jsonOut bool) int {
	t.gather() // the first round primes the rate baseline
	time.Sleep(interval)
	rep := t.gather()
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "stingtop: %v\n", err)
			return 1
		}
	} else {
		renderTable(os.Stdout, rep)
	}
	for _, r := range rep.Nodes {
		if !r.Up {
			return 1
		}
	}
	return 0
}

// runLive redraws the dashboard every interval until interrupted.
func runLive(t *top, interval time.Duration) {
	for {
		rep := t.gather()
		fmt.Print("\x1b[H\x1b[2J") // home + clear
		fmt.Printf("stingtop  %s  (refresh %s, Ctrl-C to quit)\n\n",
			time.Now().Format("15:04:05"), interval)
		renderTable(os.Stdout, rep)
		time.Sleep(interval)
	}
}
