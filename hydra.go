// Package hydra is the public facade of the HYDRA reproduction: a
// programming model and runtime for offloading application components
// ("Offcodes") to programmable peripheral devices, after Weinsberg et al.,
// "Tapping into the Fountain of CPUs — On Operating System Support for
// Programmable Devices", ASPLOS 2008.
//
// The package re-exports the supported API surface from the internal
// packages. A typical OA-application declares its machine — including its
// application sessions — as a testbed spec, builds it in one step, and
// deploys through a transactional plan:
//
//	sys, err := hydra.NewTestbed(1, hydra.TestbedSpec{
//		Hosts: []hydra.HostSpec{{
//			Name:    "host",
//			Devices: []hydra.DeviceConfig{hydra.XScaleNIC("nic0")},
//			Runtime: &hydra.RuntimeConfig{},
//			Apps:    []hydra.AppSpec{{Name: "myapp"}},
//		}},
//	})
//	app := sys.Host("host").App("myapp")
//	// stock sys.Host("host").Depot with ODFs, objects and factories, then:
//	plan := app.Plan()
//	_ = plan.AddRoot("/offcodes/checksum.odf") // rejects duplicate binds
//	preview, _ := plan.Solve()                 // placement, no hardware touched
//	plan.Commit(func(dep *hydra.Deployment, err error) { ... }) // atomic
//	sys.Eng.Run(hydra.Seconds(1))
//	_ = app.Close() // stops the app's Offcodes, releases every ring and pin
//	_ = preview
//
// Sessions opened with OpenApp carry memory/channel/Offcode quotas and an
// admission-controlled device-memory reservation; Commit rolls back every
// Offcode and pinned ring on partial failure.
//
// A committed deployment stays mutable: App.Mutate applies deploy/
// replace/remove deltas against the live session, and App.Replace
// hot-swaps one running Offcode — channel traffic is quiesced, held and
// replayed exactly once around the swap, with the old instance's
// checkpoint carried into the new one and atomic rollback on failure.
//
// Above the single host, hydra.NewCluster opens a coordinator over every
// runtime host of a multi-host testbed: a ClusterPlan shards an Offcode
// graph across machines (AddRoot/Connect → Solve → Commit, with
// cluster-wide rollback), cross-host edges materialize as Bridge
// proxy-channel pairs over simulated inter-host links, and
// Cluster.FailHost migrates a dead machine's checkpointed Offcodes onto
// the surviving hosts. Cluster.Mutate re-solves the shard assignment
// incrementally (only affected shards move; untouched hosts never
// redeploy), and hydra.NewAutoscaler drives Grow/Shrink on a shard set
// from observed per-epoch load.
//
// Scenario fleets run through hydra.Sweep: one engine per replica on a
// worker pool, bit-identical to a serial loop.
//
// See README.md for the quickstart, examples/ for complete programs and
// DESIGN.md for the architecture.
package hydra

import (
	"hydra/internal/autoscale"
	"hydra/internal/bus"
	"hydra/internal/channel"
	"hydra/internal/cluster"
	"hydra/internal/core"
	"hydra/internal/depot"
	"hydra/internal/device"
	"hydra/internal/faults"
	"hydra/internal/flowtable"
	"hydra/internal/guid"
	"hydra/internal/hostos"
	"hydra/internal/layout"
	"hydra/internal/loadgen"
	"hydra/internal/objfile"
	"hydra/internal/odf"
	"hydra/internal/resource"
	"hydra/internal/sim"
	"hydra/internal/syscall"
	"hydra/internal/testbed"
)

// Simulation substrate.
type (
	// Engine is the discrete-event simulation engine all models share.
	Engine = sim.Engine
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Host is a simulated host machine (CPU, scheduler, L2).
	Host = hostos.Machine
	// HostConfig configures a host.
	HostConfig = hostos.Config
	// Bus is the host I/O interconnect.
	Bus = bus.Bus
	// BusConfig configures the interconnect.
	BusConfig = bus.Config
	// Device is a programmable peripheral.
	Device = device.Device
	// DeviceConfig configures a device.
	DeviceConfig = device.Config
	// DeviceClass describes a device class for ODF target matching.
	DeviceClass = device.Class
)

// HYDRA programming model and runtime.
type (
	// Runtime is the HYDRA runtime: deployment, channels, resources.
	Runtime = core.Runtime
	// RuntimeConfig tunes resolver, objective and loader choices.
	RuntimeConfig = core.Config
	// App is an application session opened via Runtime.OpenApp: the owner
	// of a quota-bounded resource subtree, deployment plans and channels.
	App = core.App
	// AppConfig sizes a session at admission: quotas plus the
	// device-memory reservation admission control checks.
	AppConfig = core.AppConfig
	// DeployPlan is the transactional deployment API: AddRoot → Solve
	// (placement preview) → Commit (atomic, with rollback).
	DeployPlan = core.DeployPlan
	// DeployPreview is a solved plan's per-Offcode placement forecast.
	DeployPreview = core.Preview
	// DeployAssignment is one Offcode's placement in a DeployPreview.
	DeployAssignment = core.Assignment
	// Deployment is the typed result of DeployPlan.Commit.
	Deployment = core.Deployment
	// RootOption tunes DeployPlan.AddRoot (e.g. hydra.NoReuse).
	RootOption = core.RootOption
	// MutationDelta is one live-mutation step for App.Mutate (one of
	// DeployDelta, ReplaceDelta, RemoveDelta).
	MutationDelta = core.Delta
	// DeployDelta deploys a new root into a live session.
	DeployDelta = core.DeployDelta
	// ReplaceDelta hot-swaps a running Offcode: quiesce, checkpoint,
	// swap, replay — with atomic rollback on failure.
	ReplaceDelta = core.ReplaceDelta
	// RemoveDelta stops and removes a running Offcode.
	RemoveDelta = core.RemoveDelta
	// MutationResult is the typed result of App.Mutate / App.Replace.
	MutationResult = core.MutationResult
	// ResourceNode is a node of the hierarchical resource manager; App
	// quota usage is read off App.Resources().
	ResourceNode = resource.Node
	// QuotaError reports a charge rejected by a resource quota.
	QuotaError = resource.QuotaError
	// Handle identifies a deployed Offcode instance.
	Handle = core.Handle
	// Offcode is the behaviour contract (IOffcode).
	Offcode = core.Offcode
	// OffcodeContext is passed to Offcode.Initialize.
	OffcodeContext = core.Context
	// ChannelProvider builds channels for a device.
	ChannelProvider = core.ChannelProvider
	// Depot is the Offcode library (ODFs, objects, factories).
	Depot = depot.Depot
	// Channel is a communication pathway between endpoints.
	Channel = channel.Channel
	// ChannelConfig mirrors the paper's channel configuration, including
	// the descriptor-ring batching and interrupt-coalescing knobs.
	ChannelConfig = channel.Config
	// ChannelStats counts channel activity: deliveries, drops, interrupts,
	// batches, coalesce flushes, scatter-gather writes, undelivered sends.
	ChannelStats = channel.Stats
	// ChannelSyncMode selects sequential or concurrent handler dispatch.
	ChannelSyncMode = channel.SyncMode
	// Endpoint is one end of a channel.
	Endpoint = channel.Endpoint
	// ODF is a parsed Offcode Description File.
	ODF = odf.ODF
	// Interface is a parsed Offcode interface definition.
	Interface = odf.Interface
	// GUID names Offcodes and interfaces.
	GUID = guid.GUID
	// Object is an HOBJ Offcode binary.
	Object = objfile.Object
	// LayoutGraph is the offloading layout graph of §5.
	LayoutGraph = layout.Graph
	// Placement maps Offcodes to targets.
	Placement = layout.Placement
)

// Declarative testbed layer: topologies as data, scenarios as a fleet.
type (
	// TestbedSpec declares a whole topology — hosts, devices, buses,
	// runtimes, NAS appliances, network — as data for BuildTestbed.
	TestbedSpec = testbed.Spec
	// HostSpec declares one host inside a TestbedSpec.
	HostSpec = testbed.HostSpec
	// AppSpec declares one application session on a host's runtime, so
	// multi-tenant workloads are topology data.
	AppSpec = testbed.AppSpec
	// NetSpec declares the inter-host network.
	NetSpec = testbed.NetSpec
	// ChannelSpec names a channel configuration profile on a TestbedSpec
	// (ring depth, zero-copy policy, batching, interrupt coalescing).
	ChannelSpec = testbed.ChannelSpec
	// NASSpec declares a network-attached storage appliance.
	NASSpec = testbed.NASSpec
	// FileSpec is one file pre-loaded onto a NAS.
	FileSpec = testbed.FileSpec
	// MutationSpec schedules one declarative live Offcode hot-swap on a
	// TestbedSpec (Spec.Mutations), armed on the host's own engine.
	MutationSpec = testbed.MutationSpec
	// MutationOutcome records one armed mutation's result after it fires
	// (TestbedSystem.MutationOutcomes).
	MutationOutcome = testbed.MutationOutcome
	// TestbedSystem is a built TestbedSpec, addressable by declared names.
	TestbedSystem = testbed.System
	// HostSystem is one built host inside a TestbedSystem.
	HostSystem = testbed.HostSystem
	// SweepConfig sizes a parallel scenario sweep.
	SweepConfig = testbed.SweepConfig
	// Replica identifies one run of a sweep (index + seed).
	Replica = testbed.Replica
)

// Device-initiated host syscalls: the batched reverse-RPC plane where
// Offcodes issue typed syscalls against the host's virtual file/net
// surface (internal/syscall; X11).
type (
	// SyscallProfile tunes one device's syscall plane: batch depth and
	// coalescing window on the wire, issue-credit quota, host dispatcher
	// workers, completion-ring size.
	SyscallProfile = syscall.Profile
	// SyscallStats merges the device- and host-side counters of a plane:
	// issued, dispatched, executed, completed, denied, deduped, replayed.
	SyscallStats = syscall.Stats
	// SyscallIssuer is the device-side issue API: typed wrappers
	// (Open/Read/Write/Send/MapMem/Log/Clock) over a generic Issue, with
	// checkpoint/restore for exactly-once completion across hot-swaps.
	SyscallIssuer = syscall.Issuer
	// SyscallService is the host-side dispatcher: a worker pool executing
	// unmarshaled calls against the host VFS with at-most-once dedup.
	SyscallService = syscall.Service
	// SyscallCompletion is what a syscall continuation receives. It is
	// borrowed: it and its Results are valid only while the continuation
	// runs, so copy out anything needed later (the values in Results are
	// the continuation's to keep).
	SyscallCompletion = syscall.Completion
	// SyscallOp names one host syscall operation (OpOpen … OpClock).
	SyscallOp = syscall.Op
	// SyscallMode selects blocking, completion-ring, or fire-and-forget
	// dispatch for one call.
	SyscallMode = syscall.Mode
	// SyscallSpec gives a testbed host's devices syscall planes at build
	// time (HostSpec.Syscalls).
	SyscallSpec = testbed.SyscallSpec
	// SyscallPlane is the live plane App.OpenSyscalls returns, with its
	// credit node parked in the session's resource subtree.
	SyscallPlane = core.SyscallPlane
	// HostVFS is the virtual file/net/map surface syscalls execute
	// against; NFS mounts extend it across the simulated network.
	HostVFS = hostos.VFS
)

// Syscall dispatch modes.
const (
	// SyscallSync blocks the issuing Offcode until the completion DMA.
	SyscallSync = syscall.ModeSync
	// SyscallAsync returns immediately; the completion lands on the ring.
	SyscallAsync = syscall.ModeAsync
	// SyscallFireForget expects no completion at all.
	SyscallFireForget = syscall.ModeFireForget
)

// Syscall plane constructors and profiles.
var (
	// DefaultSyscallProfile is the batched plane (batch 8, 5 µs coalesce).
	DefaultSyscallProfile = syscall.DefaultProfile
	// BlockingSyscallProfile disables batching: one call, one interrupt.
	BlockingSyscallProfile = syscall.BlockingProfile
	// NewSyscallIssuer builds a device-side issuer (attach to a channel
	// endpoint with Attach).
	NewSyscallIssuer = syscall.NewIssuer
	// NewSyscallService builds the host-side dispatcher over a VFS.
	NewSyscallService = syscall.NewService
	// NewHostVFS builds an empty virtual file/net surface on a host.
	NewHostVFS = hostos.NewVFS
	// NewNFSMount adapts an NFS client into a HostVFS mount, so device
	// syscalls reach network storage through the host surface.
	NewNFSMount = syscall.NewNFSAdapter
)

// Cluster layer: multi-host Offcode graphs scheduled over every runtime
// host of a testbed, inter-host proxy channels, and cross-host failover.
type (
	// Cluster is the coordinator scheduling Offcode graphs across the
	// runtime hosts of a TestbedSystem (hydra.NewCluster).
	Cluster = cluster.Coordinator
	// ClusterConfig tunes the coordinator: per-host session quotas, the
	// shard assignment resolver, link models and the bridge channel
	// profile.
	ClusterConfig = cluster.Config
	// ClusterPlan is the cluster-wide transactional deployment: AddRoot
	// and Connect accumulate a multi-host graph, Solve previews the host
	// assignment, Commit deploys with cluster-wide rollback.
	ClusterPlan = cluster.Plan
	// ClusterPreview is a solved cluster plan: per-shard hosts, cut
	// edges, link cost, and each host's device-level preview.
	ClusterPreview = cluster.Preview
	// ClusterDeployment is the typed result of ClusterPlan.Commit.
	ClusterDeployment = cluster.Deployment
	// ClusterRootOption tunes ClusterPlan.AddRoot (hydra.PinTo,
	// hydra.WithLoad).
	ClusterRootOption = cluster.RootOption
	// Bridge materializes one cluster edge: a proxy-channel pair, plus a
	// forwarder Offcode on each host when the edge crosses hosts.
	Bridge = cluster.Bridge
	// Link models an inter-host link: one-way latency plus bandwidth.
	Link = cluster.Link
	// LinkSpec overrides the link between one host pair.
	LinkSpec = cluster.LinkSpec
	// Traffic estimates a cluster edge's load for the placement solver.
	Traffic = cluster.Traffic
	// ClusterMigration records one host failure the coordinator healed
	// from (Coordinator.FailHost / Migrations).
	ClusterMigration = cluster.Migration
	// ClusterShardDelta is one live-mutation step for Cluster.Mutate
	// (one of AddShard, RemoveShard, SwapShard).
	ClusterShardDelta = cluster.ShardDelta
	// AddShard grows a live cluster deployment by one shard.
	AddShard = cluster.AddShard
	// RemoveShard stops and removes one shard (its bridges tear down).
	RemoveShard = cluster.RemoveShard
	// SwapShard hot-swaps one shard's Offcode in place on its host.
	SwapShard = cluster.SwapShard
	// ShardEdge declares a new shard's connections for AddShard.
	ShardEdge = cluster.ShardEdge
	// ClusterMutation is the typed result of Cluster.Mutate: moved and
	// untouched hosts, swaps with their quiesce windows, rollback state.
	ClusterMutation = cluster.ClusterMutation
)

// Autoscaling: a mechanism-free epoch controller growing and shrinking a
// shard set against observed load (internal/autoscale; X10).
type (
	// Autoscaler evaluates per-epoch load and drives its AutoscaleTarget.
	Autoscaler = autoscale.Controller
	// AutoscaleConfig sets per-shard capacity, the utilization hysteresis
	// band, shard-count bounds and the action cooldown.
	AutoscaleConfig = autoscale.Config
	// AutoscaleTarget is the shard set an Autoscaler grows and shrinks —
	// typically implemented with Cluster.Mutate.
	AutoscaleTarget = autoscale.Target
	// AutoscaleDecision records one controller epoch: rate, utilization,
	// shard count and the action taken.
	AutoscaleDecision = autoscale.Decision
)

// Data plane: shard-local match-action pipelines over connection-tracking
// flow tables, plus the open-loop flow-churn generator that drives them
// (internal/flowtable, internal/loadgen; X12).
type (
	// FlowKey is the 13-byte packed five-tuple identifying one flow;
	// FlowKey.Shard hashes it to a cluster shard (RSS style).
	FlowKey = flowtable.Key
	// FlowAction is a cached per-flow verdict (FlowForward …).
	FlowAction = flowtable.Action
	// FlowTableConfig bounds one shard-local table: a byte quota
	// (capacity = quota / 64-byte entries) and an idle timeout.
	FlowTableConfig = flowtable.Config
	// FlowTable is one shard's conntrack state: hash map + intrusive LRU
	// under a memory quota, with bit-exact Checkpoint/Restore/Digest.
	FlowTable = flowtable.Table
	// FlowTableStats counts lookups/hits/misses/inserts/evictions/
	// expirations over a table's lifetime (carried across hot-swaps).
	FlowTableStats = flowtable.Stats
	// FlowRule maps a match (dst-port range) to a verdict for
	// first-packet classification.
	FlowRule = flowtable.Rule
	// FlowPipelineConfig assembles a match-action pipeline: rules, the
	// table quota, rewrite backends.
	FlowPipelineConfig = flowtable.PipelineConfig
	// FlowPipeline is the NIC-resident match-action pipeline: cached
	// verdicts from the flow table, rule classification on a miss.
	FlowPipeline = flowtable.Pipeline
	// LoadGenConfig tunes the open-loop generator: rate, Poisson tick,
	// concurrent flows, Zipf size tail, destination port mix.
	LoadGenConfig = loadgen.Config
	// LoadGen is the open-loop flow-churn generator; Digest is its
	// determinism witness.
	LoadGen = loadgen.Gen
	// LoadGenPacket is one generated packet: flow key, sequence number,
	// payload size, and whether it retires its flow.
	LoadGenPacket = loadgen.Packet
)

// Flow verdicts.
const (
	// FlowForward passes the packet through unchanged.
	FlowForward = flowtable.ActForward
	// FlowRewrite rewrites to a load-balanced backend.
	FlowRewrite = flowtable.ActRewrite
	// FlowDrop drops at the NIC.
	FlowDrop = flowtable.ActDrop
	// FlowCount counts and forwards.
	FlowCount = flowtable.ActCount
)

// Data-plane constructors.
var (
	// NewFlowTable builds an empty conntrack table under a config.
	NewFlowTable = flowtable.New
	// NewFlowPipeline builds a match-action pipeline (table + rules).
	NewFlowPipeline = flowtable.NewPipeline
	// DecodeFlowKey parses a 13-byte wire key.
	DecodeFlowKey = flowtable.DecodeKey
	// NewLoadGen builds a seeded open-loop generator.
	NewLoadGen = loadgen.New
)

// Fault injection and self-healing: declarative fault schedules replayed by
// a seeded injector, a runtime health monitor, and Offcode migration.
type (
	// FaultSchedule is a replayable fault script (testbed Spec.Faults).
	FaultSchedule = faults.Schedule
	// FaultEntry is one declarative fault in a FaultSchedule.
	FaultEntry = faults.Entry
	// FaultKind selects a fault type (DeviceCrash, BusDegrade, ...).
	FaultKind = faults.Kind
	// FaultInjector replays fault schedules on an engine.
	FaultInjector = faults.Injector
	// FaultRecord is one fault the injector actually applied.
	FaultRecord = faults.Record
	// MonitorConfig tunes the runtime health monitor (HostSpec.Monitor).
	MonitorConfig = core.MonitorConfig
	// HealthMonitor is a running runtime health monitor.
	HealthMonitor = core.Monitor
	// Recovery records one device failure the runtime healed from.
	Recovery = core.Recovery
	// Checkpointer lets an Offcode carry state across a migration.
	Checkpointer = core.Checkpointer
	// DeviceHealth is a device's failure state.
	DeviceHealth = device.Health
)

// Fault kinds and device health states.
const (
	// DeviceCrash kills a device (local memory lost; optional auto-restart).
	DeviceCrash = faults.DeviceCrash
	// DeviceHang wedges firmware (memory survives a restart).
	DeviceHang = faults.DeviceHang
	// DeviceRestart restores a failed device.
	DeviceRestart = faults.DeviceRestart
	// BusDegrade multiplies a host bus's wire time.
	BusDegrade = faults.BusDegrade
	// BusOutage blocks a host bus for a duration.
	BusOutage = faults.BusOutage
	// HealthOK is a healthy, work-executing device.
	HealthOK = device.HealthOK
	// HealthHung is wedged firmware (local memory survives a restart).
	HealthHung = device.HealthHung
	// HealthCrashed is a dead device (local memory lost on restart).
	HealthCrashed = device.HealthCrashed
	// SyncSequential serializes channel handler invocations per endpoint.
	SyncSequential = channel.SyncSequential
	// SyncConcurrent dispatches each channel message as it arrives.
	SyncConcurrent = channel.SyncConcurrent
)

// Sweep runs one scenario replica per seed on a worker pool, each replica
// on its own engine; results come back in replica order and are
// bit-identical to a serial loop. See testbed.Sweep.
func Sweep[T any](cfg SweepConfig, run func(Replica) (T, error)) ([]T, error) {
	return testbed.Sweep(cfg, run)
}

// Constructors and helpers.
var (
	// BuildTestbed instantiates a TestbedSpec on an engine.
	BuildTestbed = testbed.Build
	// NewTestbed creates an engine from seed and builds a TestbedSpec on it.
	NewTestbed = testbed.New
	// GPUDevice is a programmable display-adapter profile (§6.3 client).
	GPUDevice = device.GPU
	// SmartDiskDevice is a programmable storage-controller profile (§6.1).
	SmartDiskDevice = device.SmartDisk
	// NewEngine creates a simulation engine with the given seed.
	NewEngine = sim.NewEngine
	// NewHost creates a host machine.
	NewHost = hostos.New
	// PentiumIV is the paper's testbed host profile.
	PentiumIV = hostos.PentiumIV
	// NewBus creates the I/O interconnect.
	NewBus = bus.New
	// DefaultBusConfig is a PCI-class interconnect.
	DefaultBusConfig = bus.DefaultConfig
	// NewDevice attaches a programmable device.
	NewDevice = device.New
	// XScaleNIC is a programmable-NIC profile like the paper's 3Com card.
	XScaleNIC = device.XScaleNIC
	// NewDepot creates an empty Offcode depot.
	NewDepot = depot.New
	// NewRuntime creates the HYDRA runtime on a host.
	NewRuntime = core.New
	// NewFaultInjector creates a deterministic fault injector on an engine.
	NewFaultInjector = faults.NewInjector
	// NewCluster opens a cluster coordinator over every runtime host of a
	// built testbed.
	NewCluster = cluster.New
	// NewAutoscaler creates an epoch-driven autoscale controller over a
	// target shard set.
	NewAutoscaler = autoscale.New
	// DefaultClusterLink is the default inter-host link model (~20 µs,
	// 1 Gb/s — the paper testbed's switched gigabit fabric).
	DefaultClusterLink = cluster.DefaultLink
	// PinTo forces a cluster root onto the named host.
	PinTo = cluster.PinTo
	// WithLoad sets a cluster root's placement weight (default 1).
	WithLoad = cluster.WithLoad
	// DefaultChannelConfig is the Figure 3 channel: reliable, zero-copy,
	// sequential unicast.
	DefaultChannelConfig = channel.DefaultConfig
	// OOBChannelConfig is the runtime's connectionless out-of-band channel.
	OOBChannelConfig = channel.OOBConfig
	// NewChannel creates a channel owned by a creator endpoint.
	NewChannel = channel.New
	// NewHostEndpoint builds a channel endpoint executing on a host.
	NewHostEndpoint = channel.HostEndpoint
	// NewDeviceEndpoint builds a channel endpoint executing on a device.
	NewDeviceEndpoint = channel.DeviceEndpoint
	// ParseODF parses an Offcode Description File.
	ParseODF = odf.Parse
	// ParseInterface parses an interface definition.
	ParseInterface = odf.ParseInterface
	// SynthesizeObject fabricates an HOBJ Offcode binary.
	SynthesizeObject = objfile.Synthesize
	// Seconds converts seconds to virtual Time.
	Seconds = sim.Seconds
)

// Session errors and quota kinds.
var (
	// ErrAppExists reports an OpenApp name collision.
	ErrAppExists = core.ErrAppExists
	// ErrAppClosed reports use of a closed session.
	ErrAppClosed = core.ErrAppClosed
	// ErrAdmission reports an OpenApp rejected by device-capacity
	// admission control.
	ErrAdmission = core.ErrAdmission
	// ErrDuplicateBind reports a bind name already deployed from a
	// different ODF or already present in a plan.
	ErrDuplicateBind = core.ErrDuplicateBind
	// NoReuse makes AddRoot reject an already-deployed root instead of
	// reusing the running instance.
	NoReuse = core.NoReuse
)

// Quota kinds booked in an App's resource subtree.
const (
	// QuotaMemory is pinned host memory in bytes.
	QuotaMemory = core.QuotaMemory
	// QuotaChannels counts concurrently open app-created channels.
	QuotaChannels = core.QuotaChannels
	// QuotaOffcodes counts live Offcodes owned by a session.
	QuotaOffcodes = core.QuotaOffcodes
)

// Layout resolvers and objectives.
const (
	// ResolveGreedy is the fast layout heuristic.
	ResolveGreedy = core.ResolveGreedy
	// ResolveILP is the §5 optimal integer program.
	ResolveILP = core.ResolveILP
	// MaximizeOffload offloads as many Offcodes as possible.
	MaximizeOffload = layout.MaximizeOffload
	// MaximizeBusUsage maximizes offloaded bandwidth under bus budgets.
	MaximizeBusUsage = layout.MaximizeBusUsage
)
