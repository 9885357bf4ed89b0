package tspace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Transaction substrate: the representation-side half of the STM layer
// (internal/stm). A transaction buffers its operations and ships the whole
// log here at commit time; ApplyCommit validates the reads and applies the
// takes and puts under a short per-space commit critical section. Ordinary
// single-tuple operations never enter that critical section — they stay on
// the paper's per-bin fast path — so validation is optimistic: per-bucket
// version counters (bumped by every deposit and removal) give commits a
// cheap "nothing moved" check, and a value-based presence scan backs it up
// when the bucket did change.

// Transaction errors.
var (
	// ErrTxnConflict is the class every ConflictError matches; a commit
	// returning it observed state that invalidates the transaction's reads,
	// and the caller should retry from the top.
	ErrTxnConflict = errors.New("tspace: transaction conflict")
	// ErrTxnUnsupported is returned for a space whose store has no commit
	// hooks: the vector, shared-variable and semaphore stores. Only the list
	// store (bag, set, queue) and the hash store get the transactional front.
	ErrTxnUnsupported = errors.New("tspace: representation does not support transactions")
)

// ConflictError reports a failed commit-time validation: a tuple the
// transaction read or wants to take is no longer present. It matches
// ErrTxnConflict via errors.Is.
type ConflictError struct {
	Space  string // space where validation failed ("" when unnamed)
	Detail string
}

func (e *ConflictError) Error() string {
	if e.Space == "" {
		return fmt.Sprintf("tspace: transaction conflict: %s", e.Detail)
	}
	return fmt.Sprintf("tspace: transaction conflict on %q: %s", e.Space, e.Detail)
}

// Is makes errors.Is(err, ErrTxnConflict) true for every ConflictError.
func (e *ConflictError) Is(target error) bool { return target == ErrTxnConflict }

// TxnOpKind classifies one logged operation.
type TxnOpKind uint8

// The three logged operation kinds. Reads validate presence at commit,
// takes remove, puts deposit.
const (
	TxnRead TxnOpKind = 1 + iota
	TxnTake
	TxnPut
)

func (k TxnOpKind) String() string {
	switch k {
	case TxnRead:
		return "read"
	case TxnTake:
		return "take"
	case TxnPut:
		return "put"
	default:
		return fmt.Sprintf("TxnOpKind(%d)", uint8(k))
	}
}

// TxnOp is one logged operation in wire form: the space it targets by
// name, the concrete tuple involved (reads and takes log the resolved
// match, never a template), and for reads/takes the bucket version
// observed at read time — zero means "no fast path", forcing the
// value-based validation scan.
type TxnOp struct {
	Kind  TxnOpKind
	Space string
	Ver   uint64
	Tup   Tuple
}

// MaxTxnOps bounds one commit frame, enforced on decode.
const MaxTxnOps = 1024

// AppendTxnOps appends the wire encoding of a commit log.
func AppendTxnOps(dst []byte, ops []TxnOp) ([]byte, error) {
	if len(ops) > MaxTxnOps {
		return nil, codecErrf("%d txn ops exceed limit", len(ops))
	}
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for _, op := range ops {
		if op.Kind < TxnRead || op.Kind > TxnPut {
			return nil, codecErrf("bad txn op kind %d", op.Kind)
		}
		if len(op.Space) > MaxWireString {
			return nil, codecErrf("space name of %d bytes exceeds limit", len(op.Space))
		}
		dst = append(dst, byte(op.Kind))
		dst = binary.AppendUvarint(dst, uint64(len(op.Space)))
		dst = append(dst, op.Space...)
		dst = binary.AppendUvarint(dst, op.Ver)
		var err error
		dst, err = AppendTuple(dst, op.Tup)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeTxnOps decodes a commit log, returning it and the bytes consumed.
func DecodeTxnOps(b []byte) ([]TxnOp, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, codecErrf("bad txn op count")
	}
	if l > MaxTxnOps {
		return nil, 0, codecErrf("%d txn ops exceed limit", l)
	}
	ops := make([]TxnOp, 0, l)
	off := n
	for i := uint64(0); i < l; i++ {
		if off >= len(b) {
			return nil, 0, codecErrf("truncated txn op")
		}
		kind := TxnOpKind(b[off])
		if kind < TxnRead || kind > TxnPut {
			return nil, 0, codecErrf("bad txn op kind %d", kind)
		}
		off++
		nl, c := binary.Uvarint(b[off:])
		if c <= 0 {
			return nil, 0, codecErrf("bad space name length")
		}
		if nl > MaxWireString {
			return nil, 0, codecErrf("space name of %d bytes exceeds limit", nl)
		}
		off += c
		if uint64(len(b)-off) < nl {
			return nil, 0, codecErrf("truncated space name")
		}
		space := string(b[off : off+int(nl)])
		off += int(nl)
		ver, c := binary.Uvarint(b[off:])
		if c <= 0 {
			return nil, 0, codecErrf("bad txn op version")
		}
		off += c
		tup, c, err := DecodeTuple(b[off:])
		if err != nil {
			return nil, 0, err
		}
		off += c
		ops = append(ops, TxnOp{Kind: kind, Space: space, Ver: ver, Tup: tup})
	}
	return ops, off, nil
}

// TxnSpace is implemented by the transactional front, the one New builds
// over the list and hash stores (hash, bag, set, queue). The exported methods are the transactional
// probes the STM layer builds its read set with; the unexported commit
// hooks keep the commit protocol inside this package (ApplyCommit).
type TxnSpace interface {
	TupleSpace
	// TxnProbe finds a matching tuple without removing it — takes are
	// deferred to commit — and returns the version of the bucket the match
	// came from, read before the scan, for commit-time fast-path
	// validation. newSkip, when non-nil, is called once per probe pass and
	// returns a predicate that suppresses candidates the transaction has
	// already claimed (reads-see-own-takes with multiplicity).
	TxnProbe(ctx *core.Context, tpl Template, newSkip func() func(Tuple) bool) (Tuple, Bindings, uint64, error)
	// TxnWait is the blocking TxnProbe: it parks in the space's blocked
	// table until a candidate the skip predicate allows appears.
	TxnWait(ctx *core.Context, tpl Template, newSkip func() func(Tuple) bool) (Tuple, Bindings, uint64, error)

	txnMeta() *txnMeta
	txnTake(tup Tuple, k waitKey) bool
	txnPresent(tup Tuple, k waitKey) bool
	txnTupleVer(k waitKey) uint64
}

// RemoteTxn is implemented by fabric space proxies (remote client spaces,
// cluster spaces) that can commit a transaction log atomically on the
// process that owns the data.
type RemoteTxn interface {
	// TxnDomain identifies the commit domain. Operations whose spaces
	// share a domain commit atomically in one frame; a transaction spanning
	// domains cannot commit.
	TxnDomain() any
	// TxnSpaceName is the name this space's operations carry on the wire.
	TxnSpaceName() string
	// CommitTxn ships the buffered log for a single atomic server-side
	// commit; a validation failure surfaces as a ConflictError.
	CommitTxn(ctx *core.Context, ops []TxnOp) error
}

// txnMeta is the per-space commit coordination state: a globally ordered
// identity (multi-space commits lock in id order, so concurrent commits
// over overlapping space sets never deadlock) and the commit mutex itself.
type txnMeta struct {
	id uint64
	mu sync.Mutex
}

var txnMetaIDs atomic.Uint64

func (m *txnMeta) init() {
	if m.id == 0 {
		m.id = txnMetaIDs.Add(1)
	}
}

// CommitOp is one resolved operation of a local commit: a TxnOp bound to
// the space it targets. Name is diagnostic only.
type CommitOp struct {
	Space TxnSpace
	Name  string
	Kind  TxnOpKind
	Ver   uint64
	Tup   Tuple
}

// Commit-outcome counters and latency, process-wide: ApplyCommit runs on
// whichever process holds the data (locally under Atomic, server-side for
// a TXNCOMMIT frame), so these count every commit this process decided.
var (
	txnCommits       atomic.Uint64
	txnConflicts     atomic.Uint64
	txnCommitLatency = obs.NewHistogram(
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
	)
)

// TxnCommitStats reports the process-wide commit/conflict counters.
func TxnCommitStats() (commits, conflicts uint64) {
	return txnCommits.Load(), txnConflicts.Load()
}

// TxnCommitLatencyHistogram exposes the commit-latency histogram for the
// STM metrics collector.
func TxnCommitLatencyHistogram() *obs.Histogram { return txnCommitLatency }

// ApplyCommit atomically applies a validated transaction log. It locks
// every involved space's commit mutex in global id order, then:
//
//  1. applies the takes — each must find its exact tuple value still
//     present; a successful take doubles as validation for any read of the
//     same value;
//  2. validates the remaining reads — bucket version unchanged since the
//     read (fast path), else a value-based presence scan;
//  3. applies the puts (waking blocked readers as any deposit does).
//
// Ordinary operations never take the commit mutex, so a racing Get can
// still steal a tuple between two of these steps; a failed take or read
// validation undoes the takes already applied (re-depositing them, with
// wakeups, so no waiter is stranded) and returns a ConflictError.
//
// Tuples are immutable values, so validation is value-based and an
// ABA-style replacement (take + re-put of an identical tuple) is
// indistinguishable from no change — which is exactly the semantics a
// content-addressable memory promises.
func ApplyCommit(ctx *core.Context, ops []CommitOp) error {
	t0 := time.Now()
	metas := make([]*txnMeta, 0, 2)
	for _, op := range ops {
		m := op.Space.txnMeta()
		found := false
		for _, have := range metas {
			if have == m {
				found = true
				break
			}
		}
		if !found {
			metas = append(metas, m)
		}
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].id < metas[j].id })
	for _, m := range metas {
		m.mu.Lock()
	}
	unlock := func() {
		for i := len(metas) - 1; i >= 0; i-- {
			metas[i].mu.Unlock()
		}
	}

	var taken []CommitOp
	fail := func(op CommitOp, detail string) error {
		// Undo: re-deposit what was taken. Put wakes any waiter who probed
		// during the window, so the rollback cannot strand a reader.
		for _, t := range taken {
			_ = t.Space.Put(ctx, t.Tup)
		}
		unlock()
		txnConflicts.Add(1)
		diagKeyEvent(op.Name, DiagConflict, op.Tup, ctx)
		return &ConflictError{Space: op.Name, Detail: detail}
	}

	for _, op := range ops {
		if op.Kind != TxnTake {
			continue
		}
		if !op.Space.txnTake(op.Tup, keyOf(op.Tup)) {
			return fail(op, "tuple to take is gone")
		}
		taken = append(taken, op)
	}
	for _, op := range ops {
		if op.Kind != TxnRead {
			continue
		}
		tookSame := false
		for _, t := range taken {
			if t.Space == op.Space && sameTuple(t.Tup, op.Tup) {
				tookSame = true
				break
			}
		}
		if tookSame {
			continue // the successful take proves presence at commit time
		}
		k := keyOf(op.Tup)
		if op.Ver != 0 && op.Space.txnTupleVer(k) == op.Ver {
			continue // bucket untouched since the read
		}
		if !op.Space.txnPresent(op.Tup, k) {
			return fail(op, "read tuple no longer present")
		}
	}
	for _, op := range ops {
		if op.Kind != TxnPut {
			continue
		}
		if err := op.Space.Put(ctx, op.Tup); err != nil {
			return fail(op, fmt.Sprintf("put failed: %v", err))
		}
	}
	unlock()
	txnCommits.Add(1)
	txnCommitLatency.ObserveSince(t0)
	return nil
}

// EqualTuple reports whether two concrete tuples are the same value, with
// the matcher's numeric-width normalization. The STM layer uses it to
// track claim multiplicity.
func EqualTuple(a, b Tuple) bool { return sameTuple(a, b) }

// MatchTemplate matches tpl against a concrete tuple, demanding thread
// elements as matching always does. The STM layer uses it to satisfy
// probes from a transaction's own buffered writes.
func MatchTemplate(ctx *core.Context, tpl Template, tup Tuple) (Bindings, Tuple, bool, error) {
	return matchTuple(ctx, tpl, tup)
}
