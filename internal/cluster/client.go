package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/tspace"
)

// ErrNoShards means every shard is currently excluded.
var ErrNoShards = errors.New("cluster: no healthy shard available")

// ShardDownError reports a keyed operation whose owning shard is excluded.
// A keyed tuple lives only on its owner, so no other shard can serve the
// operation: it fails fast instead.
type ShardDownError struct {
	Node string
	Addr string
}

func (e *ShardDownError) Error() string {
	return fmt.Sprintf("cluster: shard %s (%s) is down", e.Node, e.Addr)
}

// Config tunes a cluster client.
type Config struct {
	// Dial configures each per-shard fabric client.
	Dial remote.DialConfig
	// ProbeInterval is the background health prober's tick; 0 disables
	// probing (excluded shards then stay excluded until an explicit
	// ProbeOnce or a fresh client).
	ProbeInterval time.Duration
}

// Client routes tuple-space operations across the membership's shards. It
// satisfies the same op surface as a single remote.Client — Space handles
// implement tspace.TupleSpace — but each keyed op travels to the one shard
// rendezvous hashing assigns it, and wildcard-first templates fan out to
// every healthy shard concurrently.
type Client struct {
	m      *Membership
	cfg    Config
	shards []*shard // in membership order, so m's owner index picks one

	fanouts atomic.Uint64

	wg       sync.WaitGroup // fan-out branches still draining
	stop     chan struct{}
	stopOnce sync.Once
}

// Open builds a client over m. Shard connections dial lazily on first
// use; Open itself performs no I/O, so a partially-down cluster still
// yields a client whose surviving ranges work.
func Open(m *Membership, cfg Config) *Client {
	c := &Client{
		m:    m,
		cfg:  cfg,
		stop: make(chan struct{}),
	}
	for _, n := range m.nodes {
		c.shards = append(c.shards, &shard{node: n, dial: cfg.Dial})
	}
	if cfg.ProbeInterval > 0 {
		go c.probeLoop()
	}
	return c
}

// OpenSpec is Open over a cluster spec string (nodes.json path or
// "id=addr,…" form).
func OpenSpec(spec string, cfg Config) (*Client, error) {
	m, err := Load(spec)
	if err != nil {
		return nil, err
	}
	return Open(m, cfg), nil
}

// Membership returns the cluster map this client routes against.
func (c *Client) Membership() *Membership { return c.m }

// Quiesce waits for background fan-out branches — including loser
// compensation re-deposits — to drain. Tests call it before asserting
// cluster-wide tuple counts.
func (c *Client) Quiesce() { c.wg.Wait() }

// Close stops the prober, drains fan-out branches, and hangs up every
// shard connection.
func (c *Client) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	for _, sh := range c.shards {
		sh.close()
	}
	return nil
}

// tupleOwner returns the shard a tuple of space is deposited on.
func (c *Client) tupleOwner(space string, tup tspace.Tuple) *shard {
	return c.shards[c.m.owner(tupleKey(space, tup))]
}

// healthyShards returns the currently-included shards in membership order.
func (c *Client) healthyShards() []*shard {
	out := make([]*shard, 0, len(c.shards))
	for _, sh := range c.shards {
		if sh.healthy() {
			out = append(out, sh)
		}
	}
	return out
}

// Space returns a handle on the named space, cluster-wide.
func (c *Client) Space(name string) *Space { return &Space{c: c, name: name} }

// Space is a cluster-routed handle on one named tuple space.
type Space struct {
	c        *Client
	name     string
	deadline time.Duration
}

var _ tspace.TupleSpace = (*Space)(nil)

// Deadline derives a handle whose blocking Get/Rd carry a per-op deadline
// on every shard they touch.
func (s *Space) Deadline(d time.Duration) *Space {
	return &Space{c: s.c, name: s.name, deadline: d}
}

// Name returns the space's registry name.
func (s *Space) Name() string { return s.name }

// Kind reports KindRemote: a cluster space is a remote space with routing.
func (s *Space) Kind() tspace.Kind { return tspace.KindRemote }

// Spawn is unsupported: thunks do not cross address spaces.
func (s *Space) Spawn(ctx *core.Context, thunks ...core.Thunk) ([]*core.Thread, error) {
	return nil, remote.ErrUnsupported
}

// Len sums the healthy shards' depths (unreachable shards count 0; the
// TupleSpace interface leaves no room for an error).
func (s *Space) Len() int {
	total := 0
	for _, sh := range s.c.healthyShards() {
		rc, err := sh.client(nil)
		if err != nil {
			continue
		}
		total += rc.Space(s.name).Len()
	}
	return total
}

// remoteSpace binds this handle's name and deadline onto one shard client.
func (s *Space) remoteSpace(rc *remote.Client) *remote.Space {
	sp := rc.Space(s.name)
	if s.deadline > 0 {
		sp = sp.Deadline(s.deadline)
	}
	return sp
}

// onShard runs f against one shard, classifying the outcome for health
// tracking: transport-class failures exclude the shard, op-level outcomes
// (no-match, timeout, cancel, redirect) do not.
func (s *Space) onShard(ctx *core.Context, sh *shard, f func(sp *remote.Space) error) error {
	rc, err := sh.client(ctx)
	if err != nil {
		sh.errs.Add(1)
		sh.markFailure()
		return err
	}
	sh.ops.Add(1)
	err = f(s.remoteSpace(rc))
	switch {
	case err == nil:
		sh.markSuccess()
	case errors.Is(err, remote.ErrRedirect):
		sh.redirects.Add(1)
	case transportError(err):
		sh.errs.Add(1)
		sh.markFailure()
	}
	return err
}

// Put deposits a tuple on the shard that owns its first field.
func (s *Space) Put(ctx *core.Context, tup tspace.Tuple) error {
	sh := s.c.tupleOwner(s.name, tup)
	if err := sh.downError(); err != nil {
		return err
	}
	err := s.onShard(ctx, sh, func(sp *remote.Space) error { return sp.Put(ctx, tup) })
	if err == nil {
		diag.ShardEvent(sh.node.Addr, s.name, tspace.DiagPut)
	}
	return err
}

// ErrCrossShardTxn reports a transaction whose ops route to more than one
// shard. The substrate has no distributed commit (no 2PC): a transaction
// against a cluster must keep every tuple it touches on one shard —
// in practice, sharing one first field per space, since the first field
// keys the route.
var ErrCrossShardTxn = errors.New("cluster: transaction spans shards (no cross-shard commit)")

var _ tspace.RemoteTxn = (*Space)(nil)

// TxnDomain identifies the commit authority: the cluster client. Spaces
// from one cluster handle may share a transaction as long as every op
// lands on the same shard; CommitTxn enforces that at commit time.
func (s *Space) TxnDomain() any { return s.c }

// TxnSpaceName returns the registry name commit-log ops should carry.
func (s *Space) TxnSpaceName() string { return s.name }

// CommitTxn routes a transaction's buffered log to the one shard that
// owns every tuple in it and ships the log in a single TXNCOMMIT frame.
// Ops that route to different shards fail with ErrCrossShardTxn — the
// cluster offers single-shard atomicity only.
func (s *Space) CommitTxn(ctx *core.Context, ops []tspace.TxnOp) error {
	return s.c.CommitTxn(ctx, ops)
}

// CommitTxn is the client-level commit path behind Space.CommitTxn.
func (c *Client) CommitTxn(ctx *core.Context, ops []tspace.TxnOp) error {
	if len(ops) == 0 {
		return nil
	}
	own := c.tupleOwner(ops[0].Space, ops[0].Tup)
	for _, op := range ops[1:] {
		if sh := c.tupleOwner(op.Space, op.Tup); sh != own {
			return fmt.Errorf("%w: %q is on shard %s, %q on %s",
				ErrCrossShardTxn, ops[0].Tup, own.node.ID, op.Tup, sh.node.ID)
		}
	}
	if err := own.downError(); err != nil {
		return err
	}
	sp := &Space{c: c, name: ops[0].Space}
	err := sp.onShard(ctx, own, func(rsp *remote.Space) error {
		return rsp.CommitTxn(ctx, ops)
	})
	var ce *tspace.ConflictError
	if errors.As(err, &ce) {
		diag.ShardEvent(own.node.Addr, ce.Space, tspace.DiagConflict)
	}
	return err
}

// matchOp is one of remote.Space's four matching ops as a method
// expression, such as (*remote.Space).Get.
type matchOp func(sp *remote.Space, ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error)

// onOwner runs a keyed match on the shard that owns tpl's first field and
// nowhere else: a keyed tuple lives only on its owner, so no other shard
// could answer for it. An excluded owner fails fast with ShardDownError.
// A take is recorded against the owner for the diagnoser's shard profile.
func (s *Space) onOwner(ctx *core.Context, sh *shard, tpl tspace.Template, op matchOp, take bool) (tspace.Tuple, tspace.Bindings, error) {
	if err := sh.downError(); err != nil {
		return nil, nil, err
	}
	var tup tspace.Tuple
	var bind tspace.Bindings
	err := s.onShard(ctx, sh, func(sp *remote.Space) error {
		var e error
		tup, bind, e = op(sp, ctx, tpl)
		return e
	})
	if err != nil {
		return nil, nil, err
	}
	if take {
		diag.ShardEvent(sh.node.Addr, s.name, tspace.DiagTake)
	}
	return tup, bind, nil
}

// tplOwner returns the shard that owns a template's first field, or false
// for a Formal first field, which keys no route and must fan out.
func (s *Space) tplOwner(tpl tspace.Template) (*shard, bool) {
	key, ok := routeKey(s.name, tpl)
	if !ok {
		return nil, false
	}
	return s.c.shards[s.c.m.owner(key)], true
}

// Get removes a matching tuple: keyed templates block on the owning shard,
// wildcard templates fan out first-wins with loser cancellation.
func (s *Space) Get(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	sh, keyed := s.tplOwner(tpl)
	if !keyed {
		return s.fanMatch(ctx, tpl, true)
	}
	return s.onOwner(ctx, sh, tpl, (*remote.Space).Get, true)
}

// Rd reads without removing: keyed templates block on the owning shard,
// wildcard templates fan out first-wins.
func (s *Space) Rd(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	sh, keyed := s.tplOwner(tpl)
	if !keyed {
		return s.fanMatch(ctx, tpl, false)
	}
	return s.onOwner(ctx, sh, tpl, (*remote.Space).Rd, false)
}

// TryGet probes for a match: keyed on the owner, wildcard as a sequential
// sweep (sequential so a probe can never consume two tuples).
func (s *Space) TryGet(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	sh, keyed := s.tplOwner(tpl)
	if !keyed {
		return s.sweep(ctx, tpl, (*remote.Space).TryGet)
	}
	return s.onOwner(ctx, sh, tpl, (*remote.Space).TryGet, true)
}

// TryRd probes without removing: keyed on the owner, wildcard as a sweep
// of the healthy shards.
func (s *Space) TryRd(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	sh, keyed := s.tplOwner(tpl)
	if !keyed {
		return s.sweep(ctx, tpl, (*remote.Space).TryRd)
	}
	return s.onOwner(ctx, sh, tpl, (*remote.Space).TryRd, false)
}

// sweep serves a wildcard probe by visiting healthy shards in membership
// order. Destructive probes must be sequential: the first match ends the
// sweep, so at most one tuple is ever consumed.
func (s *Space) sweep(ctx *core.Context, tpl tspace.Template, probe matchOp) (tspace.Tuple, tspace.Bindings, error) {
	shards := s.c.healthyShards()
	if len(shards) == 0 {
		return nil, nil, ErrNoShards
	}
	var lastErr error
	for _, sh := range shards {
		var tup tspace.Tuple
		var bind tspace.Bindings
		err := s.onShard(ctx, sh, func(sp *remote.Space) error {
			var e error
			tup, bind, e = probe(sp, ctx, tpl)
			return e
		})
		switch {
		case err == nil:
			return tup, bind, nil
		case errors.Is(err, tspace.ErrNoMatch):
			// keep sweeping
		default:
			lastErr = err
		}
	}
	if lastErr != nil {
		return nil, nil, lastErr
	}
	return nil, nil, tspace.ErrNoMatch
}

// RdAll gathers one matching tuple from every healthy shard concurrently
// — the cluster-wide non-blocking read. Shards with no match contribute
// nothing; transport failures exclude their shard and are skipped.
func (s *Space) RdAll(ctx *core.Context, tpl tspace.Template) ([]tspace.Tuple, error) {
	shards := s.c.healthyShards()
	if len(shards) == 0 {
		return nil, ErrNoShards
	}
	results := make([]tspace.Tuple, len(shards))
	errsSeen := make([]error, len(shards))
	s.c.fanRun(ctx, len(shards), func(i int, bctx *core.Context) {
		sh := shards[i]
		errsSeen[i] = s.onShard(bctx, sh, func(sp *remote.Space) error {
			tup, _, err := sp.TryRd(bctx, tpl)
			if err != nil {
				return err
			}
			results[i] = tup
			return nil
		})
	})
	out := make([]tspace.Tuple, 0, len(shards))
	var lastErr error
	for i, tup := range results {
		if tup != nil {
			out = append(out, tup)
		} else if err := errsSeen[i]; err != nil && !errors.Is(err, tspace.ErrNoMatch) {
			lastErr = err
		}
	}
	if len(out) == 0 && lastErr != nil {
		return nil, lastErr
	}
	return out, nil
}

// fanRun executes n branches concurrently and waits for all of them: as
// STING threads forked onto the current VP under a context, as goroutines
// without one. The branches themselves park through the substrate either
// way (the remote client falls back to channels on a nil context).
func (c *Client) fanRun(ctx *core.Context, n int, branch func(i int, bctx *core.Context)) {
	var remaining atomic.Int64
	remaining.Store(int64(n))
	if ctx == nil {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); branch(i, nil) }(i)
		}
		wg.Wait()
		return
	}
	parent := ctx.TCB()
	for i := 0; i < n; i++ {
		i := i
		ctx.Fork(func(bctx *core.Context) ([]core.Value, error) {
			branch(i, bctx)
			if remaining.Add(-1) == 0 {
				core.WakeTCB(parent)
			}
			return nil, nil
		}, nil, core.WithName("cluster/fan"))
	}
	ctx.BlockUntil(func() bool { return remaining.Load() == 0 })
}

// fanMatch serves a wildcard blocking Get/Rd: every healthy shard runs the
// op concurrently under its own cancel token; the first branch to match
// wins and cancels the rest. A losing Get branch whose cancel arrived
// after its server already matched owns a removed tuple — it compensates
// by re-depositing to the same shard, preserving the cluster-wide
// exactly-one-consumed invariant. The caller returns as soon as a winner
// (or total failure) is decided; losers drain in the background, tracked
// by the client's wait group (Quiesce).
func (s *Space) fanMatch(ctx *core.Context, tpl tspace.Template, destructive bool) (tspace.Tuple, tspace.Bindings, error) {
	shards := s.c.healthyShards()
	if len(shards) == 0 {
		return nil, nil, ErrNoShards
	}
	s.c.fanouts.Add(1)

	// A traced caller gets a fanout span with one child span per shard
	// branch: the winner marks "won" (and is recorded on the parent), a
	// loser withdrawn by CANCEL marks "canceled", and a losing Get that
	// re-deposits its tuple marks "redeposit". Branch spans are closed by
	// defer, so a canceled or failed branch never leaks an open span.
	var fanSpan *obs.Span
	if ctx != nil {
		if sc := ctx.SpanContext(); sc.Valid() {
			if fanSpan = obs.StartSpan(sc, "cluster/fanout", obs.SpanInternal); fanSpan != nil {
				fanSpan.SetAttr("space", s.name)
				fanSpan.SetAttr("shards", strconv.Itoa(len(shards)))
				if destructive {
					fanSpan.SetAttr("op", "get")
				} else {
					fanSpan.SetAttr("op", "rd")
				}
			}
		}
	}

	type result struct {
		tup  tspace.Tuple
		bind tspace.Bindings
	}
	var (
		mu      sync.Mutex
		winner  *result
		fails   int
		lastErr error
		decided = make(chan struct{})
		once    sync.Once
		parent  *core.TCB
	)
	if ctx != nil {
		parent = ctx.TCB()
	}
	decide := func() {
		once.Do(func() {
			close(decided)
			if parent != nil {
				core.WakeTCB(parent)
			}
		})
	}
	toks := make([]*tspace.CancelToken, len(shards))
	for i := range toks {
		toks[i] = tspace.NewCancelToken()
	}

	branch := func(i int, bctx *core.Context) {
		defer s.c.wg.Done()
		sh := shards[i]
		var bspan *obs.Span
		if fanSpan != nil {
			if bspan = obs.StartSpan(fanSpan.Context(), "cluster/branch", obs.SpanInternal); bspan != nil {
				bspan.SetAttr("shard", sh.node.ID)
				if bctx != nil {
					// Re-parent the branch's wire operations under its span.
					bctx.SetSpanContext(bspan.Context())
				}
			}
		}
		defer bspan.End()
		var tup tspace.Tuple
		var bind tspace.Bindings
		rc, err := sh.client(bctx)
		if err == nil {
			sh.ops.Add(1)
			sp := s.remoteSpace(rc)
			if destructive {
				tup, bind, err = sp.GetCancel(bctx, tpl, toks[i])
			} else {
				tup, bind, err = sp.RdCancel(bctx, tpl, toks[i])
			}
		}
		if err == nil {
			sh.markSuccess()
			mu.Lock()
			if winner == nil {
				winner = &result{tup: tup, bind: bind}
				for j, tok := range toks {
					if j != i {
						tok.Cancel(nil)
					}
				}
				mu.Unlock()
				bspan.Event("won")
				fanSpan.SetAttr("winner", sh.node.ID)
				decide()
				return
			}
			mu.Unlock()
			if destructive {
				// Lost the race with a tuple in hand: put it back where it
				// came from. Failure here means the shard died under us —
				// counted, the tuple goes down with its shard.
				bspan.Event("redeposit")
				sh.compensations.Add(1)
				if perr := s.remoteSpace(rc).Put(bctx, tup); perr != nil {
					sh.compErrs.Add(1)
				}
			}
			return
		}
		if errors.Is(err, remote.ErrCanceled) {
			bspan.Event("canceled")
		}
		if transportError(err) {
			sh.errs.Add(1)
			sh.markFailure()
		}
		mu.Lock()
		// A canceled branch is a loser, not a failure mode worth
		// reporting; anything else becomes the all-failed verdict.
		if !errors.Is(err, remote.ErrCanceled) {
			lastErr = err
		}
		fails++
		all := winner == nil && fails == len(shards)
		mu.Unlock()
		if all {
			decide()
		}
	}

	for i := range shards {
		s.c.wg.Add(1)
		if ctx != nil {
			i := i
			// The branch span stands for the branch, so its thread opens no
			// span of its own: a thread span ends at determination, after
			// branch's wg.Done, and would outlive Quiesce.
			ctx.Fork(func(bctx *core.Context) ([]core.Value, error) {
				branch(i, bctx)
				return nil, nil
			}, nil, core.WithName("cluster/fan"), core.WithSpanContext(obs.SpanContext{}))
		} else {
			go branch(i, nil)
		}
	}
	if ctx != nil {
		ctx.BlockUntil(func() bool {
			select {
			case <-decided:
				return true
			default:
				return false
			}
		})
	} else {
		<-decided
	}
	// Losers drain in the background; their branch spans may outlive the
	// fanout span, which records only the decided window the caller saw.
	fanSpan.End()
	mu.Lock()
	defer mu.Unlock()
	if winner != nil {
		return winner.tup, winner.bind, nil
	}
	if lastErr == nil {
		lastErr = ErrNoShards
	}
	return nil, nil, lastErr
}

// transportError reports whether err indicts the shard rather than the
// operation: connection and protocol failures count, op-level outcomes
// (no match, timeout, cancellation, redirect, unsupported) do not.
func transportError(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, tspace.ErrNoMatch),
		errors.Is(err, remote.ErrTimeout),
		errors.Is(err, remote.ErrCanceled),
		errors.Is(err, remote.ErrRedirect),
		errors.Is(err, remote.ErrUnsupported):
		return false
	}
	return true
}
