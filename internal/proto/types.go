// Package proto defines the coherence-protocol vocabulary shared by the
// home LLC banks (internal/system) and the coherence-tracking schemes
// (internal/dir for the baselines, internal/core for the paper's
// contribution): request kinds, directory-visible block states, tracking
// entries, LLC line metadata, and the Tracker interface every scheme
// implements.
package proto

import (
	"fmt"

	"tinydir/internal/bitvec"
	"tinydir/internal/cache"
	"tinydir/internal/sim"
	"tinydir/internal/snapshot"
)

// ReqKind is the kind of message a home bank processes for a block.
type ReqKind int

const (
	// GetS is a data read miss.
	GetS ReqKind = iota
	// GetI is an instruction read miss. Instruction reads are always
	// answered in S state to accelerate code sharing (paper §III-B).
	GetI
	// GetX is a write miss (read-exclusive).
	GetX
	// Upg is an upgrade: the requester holds an S copy and wants M.
	Upg
	// PutE is an eviction notice for a clean exclusively-held block.
	PutE
	// PutM is an eviction notice carrying dirty data.
	PutM
	// PutS is an eviction notice for a shared copy.
	PutS
)

func (k ReqKind) String() string {
	switch k {
	case GetS:
		return "GetS"
	case GetI:
		return "GetI"
	case GetX:
		return "GetX"
	case Upg:
		return "Upg"
	case PutE:
		return "PutE"
	case PutM:
		return "PutM"
	case PutS:
		return "PutS"
	default:
		return fmt.Sprintf("ReqKind(%d)", int(k))
	}
}

// IsRead reports whether k is a read-class request (GetS or GetI).
func (k ReqKind) IsRead() bool { return k == GetS || k == GetI }

// IsEvict reports whether k is an eviction notice.
func (k ReqKind) IsEvict() bool { return k == PutE || k == PutM || k == PutS }

// State is the directory-visible coherence state of a block.
type State int

const (
	// Unowned: no private cache holds the block.
	Unowned State = iota
	// Exclusive: exactly one core holds the block in E or M.
	Exclusive
	// Shared: one or more cores hold read-only copies.
	Shared
)

func (s State) String() string {
	switch s {
	case Unowned:
		return "Unowned"
	case Exclusive:
		return "Exclusive"
	case Shared:
		return "Shared"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Entry is a coherence-tracking entry: the full-map information a
// directory organization maintains per tracked block.
type Entry struct {
	State   State
	Owner   int        // valid when State == Exclusive
	Sharers bitvec.Vec // valid when State == Shared
	Dirty   bool       // owner's copy known dirty (M) — affects copyback
}

// LLCMeta is the per-LLC-line metadata. The data value itself is not
// simulated; Corrupted models the (V=0, D=1) encoding of Table III where
// the first bits of the data block hold the extended state of Table IV,
// and Spill marks a line that is a spilled coherence-tracking entry (EB)
// rather than a data block.
type LLCMeta struct {
	Dirty     bool
	Corrupted bool
	Spill     bool
	// Track is the coherence state stored in this line when Corrupted or
	// Spill is set (in-LLC tracking, §III / §IV-B1).
	Track Entry
	// STRAC and OAC are the six-bit saturating access counters of §IV-A,
	// borrowed from the data block for corrupted lines and carried in the
	// extended tracking entries otherwise.
	STRAC, OAC uint8
	// Lengthened marks lines that sourced at least one lengthened
	// (three-hop shared read) access, for the Fig. 7 statistic.
	Lengthened bool
	// MaxSharers is the maximum simultaneous sharer count observed during
	// this line's residency (Fig. 2 statistic).
	MaxSharers int
	// StatSharedReads and StatAccesses accumulate, per residency, the
	// shared-read and total demand-access counts the bank uses for the
	// Fig. 8/9 STRA-ratio census. They are simulator instrumentation, not
	// architected state.
	StatSharedReads, StatAccesses uint32
}

// LLC is the tag array of one LLC bank.
type LLC = cache.Cache[LLCMeta]

// LLCLine is one LLC tag entry.
type LLCLine = cache.Line[LLCMeta]

// View is what a Tracker reports for a block at the start of a
// transaction.
type View struct {
	E Entry
	// SupplyFromLLC is false when the LLC data block cannot be used to
	// answer a shared read (its bits are corrupted by in-LLC tracking),
	// forcing the three-hop elected-sharer path.
	SupplyFromLLC bool
	// SpillHit notes that SupplyFromLLC is true because of a spilled
	// tracking entry (Fig. 19 statistic).
	SpillHit bool
	// ExtraLatency is the coherence-state decode penalty at the bank
	// (paper §IV-C: +1 cycle corrupted-shared, +3 cycles
	// corrupted-exclusive).
	ExtraLatency int
	// NeedBroadcast asks the bank to perform broadcast recovery because
	// the block is untracked but may be cached (Stash directory).
	NeedBroadcast bool
}

// Victim describes a tracking entry whose block's private copies must be
// invalidated because the entry was displaced.
type Victim struct {
	Addr uint64
	E    Entry
}

// Effects are side effects of a tracker state change, executed by the
// home bank off the critical path.
type Effects struct {
	// BackInvals lists blocks whose private copies must be invalidated.
	BackInvals []Victim
	// ReconFromCores lists cores that must send the small
	// reconstruction-bits message to the home bank (traffic accounting,
	// in-LLC scheme §III-B).
	ReconFromCores []int
	// LLCStateWrites counts LLC data-array writes performed to update
	// in-LLC coherence state (energy accounting, Fig. 21).
	LLCStateWrites int
	// LLCWritebacks lists dirty blocks displaced from the LLC by
	// tracker-internal allocations (spilled entries); the bank writes
	// them to memory.
	LLCWritebacks []uint64
}

// Merge appends o's effects to e.
func (e *Effects) Merge(o Effects) {
	e.BackInvals = append(e.BackInvals, o.BackInvals...)
	e.ReconFromCores = append(e.ReconFromCores, o.ReconFromCores...)
	e.LLCStateWrites += o.LLCStateWrites
	e.LLCWritebacks = append(e.LLCWritebacks, o.LLCWritebacks...)
}

// BankEnv is the view of a home bank that a Tracker receives at attach
// time.
type BankEnv interface {
	// LLC returns the bank's tag array. Trackers may read and mutate line
	// metadata (corrupted bits, spilled entries) but must not insert or
	// invalidate lines except through spill allocation helpers agreed
	// with the bank.
	LLC() *LLC
	// Cores returns the number of cores in the system.
	Cores() int
	// Now returns the current simulation time.
	Now() sim.Time
	// BankID returns this bank's tile id.
	BankID() int
	// BankShift is log2(number of banks): trackers strip this many low
	// address bits when set-indexing their own tag arrays, since those
	// bits are constant within a slice.
	BankShift() uint
	// FindHolders is the broadcast oracle: it returns the actual private
	// holders of a block by inspecting core caches, modeling the snoop
	// responses a broadcast would gather. Only broadcast-based schemes
	// (Stash, MgD region break-up) may use it; the bank charges broadcast
	// latency and traffic.
	FindHolders(addr uint64) Entry
	// IsBusy reports whether a transaction is in flight for addr.
	// Trackers must not victimize entries of busy blocks.
	IsBusy(addr uint64) bool
}

// Tracker is a coherence-tracking scheme: a sparse directory baseline, the
// in-LLC scheme, or the tiny directory. One Tracker instance serves one
// LLC bank (a "slice").
type Tracker interface {
	// Name identifies the scheme in metrics output.
	Name() string
	// Attach binds the tracker to its bank. Called once before use.
	Attach(env BankEnv)
	// Begin reports the current tracking state of addr for a transaction
	// of the given kind. llcHit tells the tracker whether the LLC holds
	// the tag (trackers maintain access-window statistics from it).
	// Begin must not change coherence state, but may update policy
	// metadata (STRA counters, window counters).
	Begin(addr uint64, kind ReqKind, llcHit bool) View
	// Commit records the post-transaction state of addr. A next.State of
	// Unowned drops tracking. kind is the request that caused the
	// transition and `from` the core that issued it (requester or
	// evictor). The returned effects must be executed by the bank.
	// When Commit runs, the bank guarantees the LLC holds a line for
	// addr unless the block is transitioning to Unowned.
	Commit(addr uint64, kind ReqKind, from int, next Entry) Effects
	// OnLLCVictim is called when the bank is about to evict the valid
	// LLC line l. The tracker must migrate or drop any tracking state
	// held in the line and return the required side effects.
	OnLLCVictim(l *LLCLine) Effects
	// Lookup returns the current tracking entry without any policy
	// side effects (used by invariant checks and statistics).
	Lookup(addr uint64) (Entry, bool)
	// Metrics adds scheme-specific counters into m (prefix-qualified).
	Metrics(m map[string]uint64)
	// SaveState serializes the tracker's complete mutable state
	// (checkpoint/restore subsystem). State held in LLC line metadata is
	// serialized by the bank with the LLC, not here.
	SaveState(w *snapshot.Writer)
	// LoadState restores state written by SaveState into a tracker that
	// was constructed with the identical configuration.
	LoadState(r *snapshot.Reader) error
	// ReleaseStorage hands the tracker, with its reusable storage (tag
	// arrays, buffers), back for the next machine's banks once this one
	// is finished; the tracker is unusable afterwards, and a second call
	// would hand it to two machines.
	ReleaseStorage()
}
