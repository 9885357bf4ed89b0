package scheme

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/remote"
	"repro/internal/testkit"
)

// startFabric boots a fabric server on its own VM and returns its address.
func startFabric(t *testing.T) (*remote.Server, string) {
	t.Helper()
	vm := testkit.VM(t, 2, 2)
	srv := remote.NewServer(vm, remote.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(srv.Shutdown)
	return srv, ln.Addr().String()
}

func TestRemotePrims(t *testing.T) {
	srv, addr := startFabric(t)
	in := newInterp(t, 2, 2)

	evalOK(t, in, `(define sp (remote-open "`+addr+`" "jobs")) (tuple-space? sp)`, "#t")
	evalOK(t, in, `(remote-put sp '(job 1 "alpha"))`, WriteString(Unspecified))
	evalOK(t, in, `(tuple-space-size sp)`, "1")
	// Symbols travel as strings; results come back as strings.
	evalOK(t, in, `(remote-rd sp '(job ?n ?name))`, `("job" 1 "alpha")`)
	evalOK(t, in, `(remote-get sp '(job 1 ?name))`, `("job" 1 "alpha")`)
	evalOK(t, in, `(remote-try-get sp '(job ?n ?name))`, "#f")
	// Deadline-bounded blocking get on an empty space: scheme-level error.
	err := evalErr(t, in, `(remote-get sp '(job ?n ?name) 60)`)
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("timeout error text: %v", err)
	}
	if srv.Stats().Timeouts != 1 {
		t.Fatalf("server timeouts = %d, want 1", srv.Stats().Timeouts)
	}

	// The generic binding forms work on remote spaces too: the wrapper
	// lowers symbol tags to strings on the way out.
	evalOK(t, in, `(put sp '(pair 3 4))`, WriteString(Unspecified))
	evalOK(t, in, `(get sp (pair ?x ?y) (+ x y))`, "7")

	evalOK(t, in, `(pair? (assq 'ops (remote-stats "`+addr+`")))`, "#t")
	evalOK(t, in, `(remote-close)`, WriteString(Unspecified))
}

// TestRemoteStatsRows: remote-stats builds its rows from the STATS reply,
// and on a server with several named spaces they equal Server.Stats().
func TestRemoteStatsRows(t *testing.T) {
	srv, addr := startFabric(t)
	in := newInterp(t, 2, 2)
	evalOK(t, in, `(define a (remote-open "`+addr+`" "a"))
		(define b (remote-open "`+addr+`" "b"))
		(define c (remote-open "`+addr+`" "c"))
		(remote-put a '(x 1)) (remote-put a '(x 2)) (remote-put a '(x 3))
		(remote-put b '(y)) (remote-put c '(z)) (remote-get c '(z))
		(remote-try-get b '(none))`, "#f")
	v, err := in.EvalString(`(remote-stats "` + addr + `")`)
	if err != nil {
		t.Fatalf("remote-stats: %v", err)
	}
	s := srv.Stats()
	want := fmt.Sprintf(`((ops %d) (blocked %d) (timeouts %d) (conns %d) (depth "a" %d) (depth "b" %d) (depth "c" %d))`,
		s.OpsTotal(), s.Blocked, s.Timeouts, s.Conns, s.SpaceDepths["a"], s.SpaceDepths["b"], s.SpaceDepths["c"])
	if got := WriteString(v); got != want {
		t.Fatalf("remote-stats = %s\nServer.Stats  %s", got, want)
	}
	if s.SpaceDepths["a"] != 3 || s.SpaceDepths["b"] != 1 || s.SpaceDepths["c"] != 0 {
		t.Fatalf("depths %v", s.SpaceDepths)
	}
}

// waitFor polls cond until it holds or a short deadline passes.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

// startCluster boots n route-checking fabric shards and returns the
// "cluster:…" address naming them.
func startCluster(t *testing.T, n int) string {
	t.Helper()
	lns := make([]net.Listener, n)
	var parts []string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		parts = append(parts, fmt.Sprintf("n%d=%s", i+1, ln.Addr()))
	}
	spec := strings.Join(parts, ",")
	m, err := cluster.ParseSpec(spec)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	for i, ln := range lns {
		vm := testkit.VM(t, 2, 2)
		check, err := cluster.SelfCheck(m, fmt.Sprintf("n%d", i+1), 0)
		if err != nil {
			t.Fatalf("selfcheck: %v", err)
		}
		srv := remote.NewServer(vm, remote.ServerConfig{RouteCheck: check})
		go srv.Serve(ln) //nolint:errcheck
		t.Cleanup(srv.Shutdown)
	}
	return "cluster:" + spec
}

// TestClusterPrims drives the same prims through a 3-shard cluster
// address: keyed ops route by first field, wildcard templates fan out,
// and cluster-health reports every shard.
func TestClusterPrims(t *testing.T) {
	caddr := startCluster(t, 3)
	in := newInterp(t, 2, 2)
	evalOK(t, in, `(define sp (remote-open "`+caddr+`" "jobs")) (tuple-space? sp)`, "#t")
	for i := 0; i < 12; i++ {
		evalOK(t, in, fmt.Sprintf(`(remote-put sp '(%d "payload"))`, i), WriteString(Unspecified))
	}
	evalOK(t, in, `(tuple-space-size sp)`, "12")
	// Keyed ops route to one shard; wildcard templates fan out.
	evalOK(t, in, `(remote-rd sp '(7 ?p))`, `(7 "payload")`)
	evalOK(t, in, `(remote-get sp '(7 ?p))`, `(7 "payload")`)
	evalOK(t, in, `(pair? (remote-get sp '(?k ?p)))`, "#t")
	// A losing fan-out branch may still be re-depositing its consumed
	// tuple in the background; poll until the cluster-wide count settles.
	waitFor(t, func() bool {
		v, err := in.EvalString(`(tuple-space-size sp)`)
		return err == nil && v == int64(10)
	}, "cluster size did not settle at 10")
	// All shards healthy: every health row ends in (… #t 0).
	evalOK(t, in, `(length (cluster-health "`+caddr+`"))`, "3")
	evalOK(t, in, `(caddr (car (cluster-health "`+caddr+`")))`, "#t")
	evalErr(t, in, `(remote-stats "`+caddr+`")`)
	evalOK(t, in, `(remote-close "`+caddr+`")`, WriteString(Unspecified))
}

// TestRemoteCloseFromThread: (remote-close) straight after the workers'
// last fan-out get, on a one-VP machine. Regression: the close waited on a
// sync.WaitGroup for the gets' cancelled loser branches while holding the
// only VP they could drain on, and never returned.
func TestRemoteCloseFromThread(t *testing.T) {
	caddr := startCluster(t, 3)
	in := newInterp(t, 1, 1)
	done := make(chan error, 1)
	go func() {
		_, err := in.EvalString(`
(define farm (remote-open "` + caddr + `" "farm"))
(define (worker)
  (let loop ((taken 0))
    (if (< (caddr (get farm (?id task ?n))) 0)
        taken
        (loop (+ taken 1)))))
(define workers (map (lambda (i) (fork-thread (worker) i)) (iota 3)))
(for-each (lambda (i) (put farm (list i 'task i))) (iota 12))
(for-each (lambda (i) (put farm (list (+ 100 i) 'task -1))) (iota 3))
(for-each thread-wait workers)
(remote-close)`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("(remote-close) from a STING thread never returned")
	}
}

func TestRemoteOpenBadAddress(t *testing.T) {
	in := newInterp(t, 1, 1)
	// Nothing listens on a reserved port; bounded retry must surface an
	// error, not hang. Low attempt budget keeps the test quick.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	evalErr(t, in, `(remote-open "`+addr+`" "jobs")`)
}
