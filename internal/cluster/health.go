package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/remote"
)

// shard is one node's runtime state: a lazily-dialed fabric client,
// health marking with exponential reinstatement backoff, and counters the
// Collector exports.
type shard struct {
	node Node
	dial remote.DialConfig

	mu      sync.Mutex
	rc      *remote.Client
	down    bool
	fails   int       // consecutive failures since exclusion
	retryAt time.Time // earliest next reinstatement probe

	ops           atomic.Uint64 // operations attempted against this shard
	errs          atomic.Uint64 // transport-class failures
	redirects     atomic.Uint64 // ops the shard refused as misrouted
	compensations atomic.Uint64 // fan-out Get losers re-depositing
	compErrs      atomic.Uint64 // compensations that themselves failed
	probes        atomic.Uint64 // reinstatement probes sent
}

// client returns the shard's fabric client, dialing on first use. The
// dial happens outside the shard lock so one slow connect cannot
// serialize ops against other shards.
func (sh *shard) client(ctx *core.Context) (*remote.Client, error) {
	sh.mu.Lock()
	if sh.rc != nil {
		rc := sh.rc
		sh.mu.Unlock()
		return rc, nil
	}
	sh.mu.Unlock()
	rc, err := remote.Dial(ctx, sh.node.Addr, sh.dial)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.rc != nil {
		// A racing dial won; keep theirs.
		go rc.Close() //nolint:errcheck
		return sh.rc, nil
	}
	sh.rc = rc
	return rc, nil
}

func (sh *shard) close() {
	sh.mu.Lock()
	rc := sh.rc
	sh.rc = nil
	sh.mu.Unlock()
	if rc != nil {
		rc.Close() //nolint:errcheck
	}
}

// healthy reports whether the shard is currently included in routing.
func (sh *shard) healthy() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return !sh.down
}

// Reinstatement backoff: an excluded shard is first reprobed after
// reinstateBackoff, and each failed probe doubles the delay up to
// maxReinstateBackoff.
const (
	reinstateBackoff    = 250 * time.Millisecond
	maxReinstateBackoff = 15 * time.Second
)

// downError is a ShardDownError while the shard is excluded, else nil.
func (sh *shard) downError() error {
	if !sh.healthy() {
		return &ShardDownError{Node: sh.node.ID, Addr: sh.node.Addr}
	}
	return nil
}

// markFailure excludes the shard and schedules its next reinstatement
// probe with exponential backoff. Exclusion flips (not every repeat
// failure) land in the flight recorder.
func (sh *shard) markFailure() {
	sh.mu.Lock()
	flipped := !sh.down
	if !sh.down {
		sh.down = true
		sh.fails = 0
	}
	sh.fails++
	fails := sh.fails
	d := reinstateBackoff
	for i := 1; i < sh.fails && d < maxReinstateBackoff; i++ {
		d *= 2
	}
	d = min(d, maxReinstateBackoff)
	sh.retryAt = time.Now().Add(d)
	sh.mu.Unlock()
	if flipped {
		diag.RecordEvent("shard-down", "", sh.node.Addr, "excluded from routing", uint64(fails))
	}
}

// markSuccess reinstates the shard; a reinstatement flip is recorded.
func (sh *shard) markSuccess() {
	sh.mu.Lock()
	flipped := sh.down
	sh.down = false
	sh.fails = 0
	sh.mu.Unlock()
	if flipped {
		diag.RecordEvent("shard-up", "", sh.node.Addr, "reinstated", 0)
	}
}

// probeLoop reprobes excluded shards until Close.
func (c *Client) probeLoop() {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.ProbeOnce()
		}
	}
}

// ProbeOnce health-checks every excluded shard whose backoff has elapsed
// with a HELLO round trip, reinstating responders. Exported so a client
// with no background prober (ProbeInterval 0) can drive reinstatement
// itself — tests and single-shot tools do.
func (c *Client) ProbeOnce() {
	now := time.Now()
	for _, sh := range c.shards {
		sh.mu.Lock()
		due := sh.down && !now.Before(sh.retryAt)
		sh.mu.Unlock()
		if !due {
			continue
		}
		sh.probes.Add(1)
		rc, err := sh.client(nil)
		if err == nil {
			err = rc.Ping(nil)
		}
		if err != nil {
			diag.RecordEvent("probe-fail", "", sh.node.Addr, err.Error(), uint64(sh.probes.Load()))
			sh.markFailure()
		} else {
			sh.markSuccess()
		}
	}
}

// ShardHealth is one shard's externally-visible health state.
type ShardHealth struct {
	Node    string
	Addr    string
	Healthy bool
	Fails   int // consecutive failures since exclusion (0 when healthy)
}

// Health snapshots every shard's inclusion state in membership order.
func (c *Client) Health() []ShardHealth {
	out := make([]ShardHealth, 0, len(c.shards))
	for _, sh := range c.shards {
		sh.mu.Lock()
		out = append(out, ShardHealth{
			Node:    sh.node.ID,
			Addr:    sh.node.Addr,
			Healthy: !sh.down,
			Fails:   sh.fails,
		})
		sh.mu.Unlock()
	}
	return out
}
