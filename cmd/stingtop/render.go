package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// renderTable prints the dashboard: one line per node, a separator, and
// the cluster rollup line.
func renderTable(w io.Writer, rep report) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tSTATE\tVER\tVPS\tRUNQ\tSTEAL/S\tTUPLES\tWAIT\tOPS/S\tSTM C/A\tP50\tP99\tSLO")
	for _, r := range rep.Nodes {
		fmt.Fprintln(tw, nodeLine(r))
	}
	c := rep.Cluster
	fmt.Fprintf(tw, "—\t\t\t\t\t\t\t\t\t\t\t\t\n")
	fmt.Fprintf(tw, "CLUSTER(%d/%d)\t%s\t\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f/%.0f\t%s\t%s\t%s\n",
		c.NodesUp, c.NodesTotal, dash(c.SLOState == "breach", "BREACH", "up"),
		c.VPs, c.RunqDepth, c.StealRate, c.TupleDepth, c.Waiters,
		c.OpsRate, c.StmCommitRate, c.StmAbortRate,
		fmtDur(c.RemoteP50), fmtDur(c.RemoteP99), orDash(c.SLOState))
	tw.Flush() //nolint:errcheck
	if len(c.Breaching) > 0 {
		fmt.Fprintf(w, "\nbreaching: %s\n", strings.Join(c.Breaching, ", "))
	}
}

func nodeLine(r nodeRow) string {
	if !r.Up {
		return fmt.Sprintf("%s\tDOWN\t\t\t\t\t\t\t\t\t\t\t%s", r.ID, r.Err)
	}
	state := "ready"
	if !r.Ready {
		state = "unready"
	}
	ver := r.GoVersion
	if r.Proto != "" {
		ver += "/p" + r.Proto
	}
	if r.Engine != "" {
		ver += "/" + r.Engine
	}
	return fmt.Sprintf("%s\t%s\t%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f/%.0f\t%s\t%s\t",
		r.ID, state, ver, r.VPs, r.RunqDepth, r.StealRate, r.TupleDepth, r.Waiters,
		r.OpsRate, r.StmCommitRate, r.StmAbortRate,
		fmtDur(r.RemoteP50), fmtDur(r.RemoteP99))
}

// fmtDur renders a latency in seconds at human scale (µs/ms/s).
func fmtDur(s float64) string {
	if s <= 0 {
		return "-"
	}
	d := time.Duration(s * float64(time.Second))
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func dash(cond bool, yes, no string) string {
	if cond {
		return yes
	}
	return no
}
