// Package sting is the public facade of this STING reproduction — a
// customizable substrate for concurrent languages (Jagannathan & Philbin,
// PLDI 1992) implemented in Go.
//
// The substrate provides first-class lightweight threads multiplexed on
// first-class virtual processors, each closed over a replaceable policy
// manager; thread stealing; TCB recycling on the virtual processor; mutexes
// with active/passive spin; first-class tuple spaces; futures; speculative
// wait-for-one / barrier wait-for-all; synchronizing streams; simulated
// non-blocking I/O; and a Scheme interpreter as the computation language.
// The paper's per-thread storage areas with independent scavenging are not
// reproduced: Go's collector owns memory.
//
// # Quickstart
//
//	m := sting.NewMachine(sting.MachineConfig{})
//	defer m.Shutdown()
//	vm, _ := m.NewVM(sting.VMConfig{VPs: 4})
//	vals, _ := vm.Run(func(ctx *sting.Context) ([]sting.Value, error) {
//	    child := ctx.Fork(func(*sting.Context) ([]sting.Value, error) {
//	        return []sting.Value{21 * 2}, nil
//	    }, nil)
//	    return ctx.Value(child)
//	})
//
// The facade re-exports the substrate types; the implementation lives in
// the internal packages (core, policy, synch, tspace, futures, spec,
// streams, sio, scheme), one per subsystem of the paper. Metrics, tracing
// and diagnosis are not re-exported: programs import internal/obs and
// internal/diag for them.
package sting

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/futures"
	"repro/internal/policy"
	"repro/internal/remote"
	"repro/internal/spec"
	"repro/internal/stm"
	"repro/internal/streams"
	"repro/internal/synch"
	"repro/internal/tspace"
)

// Core substrate types.
type (
	// Machine is the physical machine: scheduler goroutines multiplexing VPs.
	Machine = core.Machine
	// MachineConfig parameterizes machine construction.
	MachineConfig = core.MachineConfig
	// VM is a virtual machine: a vector of VPs and a root thread group.
	VM = core.VM
	// VMConfig parameterizes virtual-machine construction.
	VMConfig = core.VMConfig
	// VP is a first-class virtual processor.
	VP = core.VP
	// VPConfig parameterizes per-VP settings.
	VPConfig = core.VPConfig
	// Thread is STING's first-class lightweight thread.
	Thread = core.Thread
	// TCB is the dynamic context of an evaluating thread.
	TCB = core.TCB
	// Context is the handle thunks use for thread-controller calls.
	Context = core.Context
	// Value is the datum threads compute.
	Value = core.Value
	// Thunk is the nullary procedure a thread is closed over.
	Thunk = core.Thunk
	// PolicyManager is the scheduling/migration customization point.
	PolicyManager = core.PolicyManager
	// Group is a thread group for en-masse control.
	Group = core.Group
	// FluidEnv is a dynamic (fluid-binding) environment.
	FluidEnv = core.FluidEnv
	// Topology defines VP addressing (ring, mesh, torus, hypercube …).
	Topology = core.Topology
	// ThreadState is delayed/scheduled/evaluating/stolen/determined.
	ThreadState = core.ThreadState
	// ThreadOption customizes thread creation.
	ThreadOption = core.ThreadOption
	// Runnable is what policy managers schedule (*Thread or *TCB).
	Runnable = core.Runnable
	// EnqueueState tells a policy manager why a runnable is enqueued.
	EnqueueState = core.EnqueueState
	// Ring, Mesh, Torus, Hypercube and SystolicArray are the shipped VP
	// topologies (the §3.2 addressing modes).
	Ring          = core.Ring
	Mesh          = core.Mesh
	Torus         = core.Torus
	Hypercube     = core.Hypercube
	SystolicArray = core.SystolicArray
)

// Thread states.
const (
	Delayed    = core.Delayed
	Scheduled  = core.Scheduled
	Evaluating = core.Evaluating
	Stolen     = core.Stolen
	Determined = core.Determined
)

// Constructors and thread operations.
var (
	// NewMachine boots a physical machine.
	NewMachine = core.NewMachine
	// NewGroup creates a thread group.
	NewGroup = core.NewGroup
	// ThreadRun makes a thread runnable on a VP (thread-run).
	ThreadRun = core.ThreadRun
	// ThreadTerminate requests a thread's termination (thread-terminate).
	ThreadTerminate = core.ThreadTerminate
	// JoinThread lets ordinary Go code await a thread.
	JoinThread = core.JoinThread
	// WithName, WithPriority, WithQuantum, WithStealable, WithGroup and
	// WithFluid customize thread creation.
	WithName      = core.WithName
	WithPriority  = core.WithPriority
	WithQuantum   = core.WithQuantum
	WithStealable = core.WithStealable
	WithPinned    = core.WithPinned
	WithGroup     = core.WithGroup
	WithFluid     = core.WithFluid
	// Topology addressing helpers (left-vp, right-vp, …).
	LeftVP      = core.LeftVP
	RightVP     = core.RightVP
	UpVP        = core.UpVP
	DownVP      = core.DownVP
	NeighborVPs = core.NeighborVPs
)

// Policy managers (internal/policy): the shipped scheduling regimes.
type LocalLIFOConfig = policy.LocalLIFOConfig

var (
	// GlobalFIFO shares one locked FIFO among the VPs (worker farms).
	GlobalFIFO = policy.GlobalFIFO
	// LocalLIFO keeps per-VP queues with optional migration
	// (result-parallel trees; the substrate default regime).
	LocalLIFO = policy.LocalLIFO
	// RoundRobin is the preemptive master/slave regime.
	RoundRobin = policy.RoundRobin
	// PriorityPM schedules by programmable priority (speculation).
	PriorityPM = policy.Priority
	// RealtimePM schedules earliest-deadline-first.
	RealtimePM = policy.Realtime
	// UnifiedPM keeps one per-VP deque of all runnables (the paper's
	// single-queue granularity; lifo selects dispatch order).
	UnifiedPM = policy.Unified
)

// Synchronization structures (internal/synch).
type (
	// Mutex has the paper's active/passive spin acquisition.
	Mutex = synch.Mutex
	// Cond is a condition variable over a Mutex.
	Cond = synch.Cond
	// Barrier is a reusable n-party barrier.
	Barrier = synch.Barrier
)

var (
	// NewMutex creates a mutex (make-mutex active passive).
	NewMutex = synch.NewMutex
	// NewCond creates a condition variable.
	NewCond = synch.NewCond
	// NewBarrier creates a barrier.
	NewBarrier = synch.NewBarrier
	// WithMutex runs a body holding a mutex, exception-safe.
	WithMutex = synch.WithMutex
)

// Tuple spaces (internal/tspace).
type (
	// TupleSpace is first-class synchronizing content-addressable memory.
	TupleSpace = tspace.TupleSpace
	// Tuple is an ordered group of values (threads allowed).
	Tuple = tspace.Tuple
	// Template is a tuple pattern with ?formals.
	Template = tspace.Template
	// Bindings maps formal names to matched values.
	Bindings = tspace.Bindings
	// TupleSpaceConfig parameterizes construction.
	TupleSpaceConfig = tspace.Config
	// TupleSpaceKind names a representation (hash, bag, queue, …).
	TupleSpaceKind = tspace.Kind
)

// Tuple-space constructors and the formal marker.
var (
	NewTupleSpace = tspace.New
	Formal        = tspace.F
	ErrNoMatch    = tspace.ErrNoMatch
)

// Tuple-space representations.
const (
	KindHash      = tspace.KindHash
	KindBag       = tspace.KindBag
	KindSet       = tspace.KindSet
	KindQueue     = tspace.KindQueue
	KindVector    = tspace.KindVector
	KindSharedVar = tspace.KindSharedVar
	KindSemaphore = tspace.KindSemaphore
)

// Networked tuple-space fabric (internal/remote): named spaces served
// over TCP by a stingd daemon, with the client side implementing the
// same TupleSpace interface.
type (
	// RemoteServer serves a registry of named tuple spaces over TCP.
	RemoteServer = remote.Server
	// RemoteServerConfig parameterizes the server.
	RemoteServerConfig = remote.ServerConfig
	// RemoteClient is one connection to a fabric server.
	RemoteClient = remote.Client
	// RemoteSpace is a client-side handle implementing TupleSpace.
	RemoteSpace = remote.Space
	// RemoteDialConfig tunes client retry/backoff/deadlines.
	RemoteDialConfig = remote.DialConfig
	// TupleSpaceRegistry names tuple spaces for the fabric.
	TupleSpaceRegistry = tspace.Registry
)

var (
	// NewRemoteServer creates a fabric server on a VM.
	NewRemoteServer = remote.NewServer
	// DialRemote connects to a fabric server with bounded retry.
	DialRemote = remote.Dial
	// NewTupleSpaceRegistry creates a registry of named spaces.
	NewTupleSpaceRegistry = tspace.NewRegistry
)

// Sharded tuple-space cluster (internal/cluster): one logical space
// rendezvous-hashed across many stingd shards, with wildcard fan-out,
// health-checked exclusion, and server-side misroute redirects.
type (
	// ClusterMembership is the immutable shard map (ids, addrs, weights).
	ClusterMembership = cluster.Membership
	// ClusterNode is one shard's entry in the membership.
	ClusterNode = cluster.Node
	// ClusterClient routes tuple-space ops across the membership.
	ClusterClient = cluster.Client
	// ClusterSpace is a cluster-routed handle implementing TupleSpace.
	ClusterSpace = cluster.Space
	// ClusterConfig tunes per-shard dialing and health probing.
	ClusterConfig = cluster.Config
	// ClusterShardHealth is one shard's inclusion state.
	ClusterShardHealth = cluster.ShardHealth
)

var (
	// OpenCluster builds a routing client over a membership.
	OpenCluster = cluster.Open
	// OpenClusterSpec builds one from a nodes.json path or "id=addr,…".
	OpenClusterSpec = cluster.OpenSpec
	// LoadClusterMembership parses a nodes.json path or spec string.
	LoadClusterMembership = cluster.Load
	// ClusterSelfCheck builds a server-side RouteCheck that redirects
	// keyed ops belonging to another shard.
	ClusterSelfCheck = cluster.SelfCheck
)

// Futures (internal/futures).
type Future = futures.Future

var (
	// SpawnFuture creates an eager future (future E).
	SpawnFuture = futures.Spawn
	// DelayFuture creates a delayed future (stolen on touch).
	DelayFuture = futures.Delay
	// TouchAll touches a slice of futures in order.
	TouchAll = futures.TouchAll
)

// Speculation and barriers (internal/spec).
type TaskSet = spec.TaskSet

var (
	// WaitForOne blocks for the first completion and terminates the rest.
	WaitForOne = spec.WaitForOne
	// WaitForAll is the AND-parallel barrier.
	WaitForAll = spec.WaitForAll
	// WaitForN generalizes block-on-group.
	WaitForN = spec.WaitForN
	// NewTaskSet organizes prioritized speculative tasks.
	NewTaskSet = spec.NewTaskSet
)

// Streams (internal/streams).
type Stream = streams.Stream

var (
	// NewStream creates a synchronizing stream (make-stream).
	NewStream = streams.New
	// ErrStreamClosed is returned when reading past a closed stream.
	ErrStreamClosed = streams.ErrClosed
	// IntegerStream produces 2..limit on a dedicated thread.
	IntegerStream = streams.Integers
)

// QuantumForever disables preemption for a thread.
const QuantumForever = time.Duration(-1)

// Thread genealogy (the programming-environment hooks).
var (
	// DumpTree renders a thread's genealogy.
	DumpTree = core.DumpTree
	// DefaultAuthority is the genealogy-subtree authority policy.
	DefaultAuthority = core.DefaultAuthority
)

// Transactions (internal/stm): atomic multi-tuple operations over tuple
// spaces — buffered reads and writes, optimistic commit with read
// validation, automatic conflict retry with VP-local backoff, and
// single-frame TXNCOMMIT commits against a fabric server or one cluster
// shard (cross-shard transactions are rejected, not half-applied).
type (
	// Txn is an in-flight transaction: buffered Put/Get/Rd/TryGet/TryRd
	// that see the transaction's own effects.
	Txn = stm.Txn
	// TxnConflictError reports a failed commit-time validation.
	TxnConflictError = tspace.ConflictError
)

var (
	// Atomic runs a body transactionally, retrying on commit conflicts.
	Atomic = stm.Atomic
	// ErrTxnConflict matches every conflict error (errors.Is).
	ErrTxnConflict = tspace.ErrTxnConflict
	// ErrTxnAborted is the explicit-abort sentinel (tx.Abort()).
	ErrTxnAborted = stm.ErrAborted
	// ErrTxnMixedDomains rejects transactions spanning commit domains.
	ErrTxnMixedDomains = stm.ErrMixedDomains
	// ErrTxnUnsupported marks the vector, shared-variable and semaphore
	// spaces, whose stores have no commit hooks.
	ErrTxnUnsupported = tspace.ErrTxnUnsupported
	// ErrCrossShardTxn rejects cluster transactions spanning shards.
	ErrCrossShardTxn = cluster.ErrCrossShardTxn
)
