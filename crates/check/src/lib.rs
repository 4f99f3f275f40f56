//! Bounded, exhaustive model checker for the MESI/MSI + GS/GI protocol.
//!
//! Where the random walker in `ghostwriter_core::tester` samples one
//! message interleaving per seed, this checker enumerates *every*
//! interleaving of a small configuration — 2–4 cores, 1–2 blocks,
//! a bounded number of accesses per core — subject only to the
//! per-(src, dst) FIFO ordering the real NoC guarantees. It drives the
//! *real* [`ghostwriter_core::l1::L1Cache`] and
//! [`ghostwriter_core::dir::DirBank`] controllers through the shared
//! [`ghostwriter_core::harness::System`]; there is no re-specification
//! of the protocol that could drift from the implementation.
//!
//! The search ([`shard`]) runs over one program-free space: an issue
//! action picks any step of the access alphabet, budgeted per core, so
//! every access program and every interleaving of it is a path. It is
//! explored depth-first with visited-set pruning on a canonical state
//! fingerprint (L1 states + directory entries + in-flight message
//! channels + oracle bookkeeping; see
//! [`ghostwriter_core::harness::System::fingerprint`]) plus the issue
//! budgets left. Every transition re-checks the any-time invariants
//! (SWMR, Ghostwriter containment, the value oracle, the scribe error
//! bound); every terminal state is either quiescent — and then checked
//! against the directory-accuracy and data-value invariants — or
//! reported as a deadlock.
//!
//! On violation the checker emits a [`Counterexample`]: the action trace
//! from the initial state, shrunk ([`shard::Space::shrink`]) and
//! deterministically replayable ([`shard::Space::replay`],
//! `gwcheck --replay`) so a failure reproduces as a plain `#[test]`.
//! [`Mutation`] fault injection (dropping or forging protocol messages
//! in the harness network) exists to prove the checker can actually
//! catch protocol bugs.

use ghostwriter_core::harness::{Op, SystemConfig, Violation};
use ghostwriter_core::l1::GwParams;
use ghostwriter_core::proto::find_row;
use ghostwriter_core::{parse_protocol, BaseProtocol, GiStorePolicy, ScribePolicy};

pub mod shard;
pub mod trace;

pub use shard::{run_sweep, ShardLog, ShardOptions, SweepOutcome, SweepSpec};
pub use trace::{decode_trace, encode_trace};

/// One step of a core's access program: an operation against a pool
/// block index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Step {
    pub block: usize,
    pub op: Op,
}

/// One scheduling decision of the checker — the alphabet whose
/// interleavings the search enumerates.
///
/// `Issue` carries the step it issues, so a trace alone determines the
/// access program it exercises: a counterexample replays
/// ([`shard::Space::replay`]) from its trace and the sweep spec alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// `core` issues `step` (enabled while the core is idle and has
    /// program budget left).
    Issue { core: usize, step: Step },
    /// Deliver the head of the (src, dst) FIFO channel.
    Deliver { src: usize, dst: usize },
    /// Fire `core`'s periodic GI-timeout sweep (enabled while the core
    /// holds a GI line).
    GiTimeout { core: usize },
    /// Bounded-fault mode: drop the head of the (src, dst) channel
    /// (enabled on the unreliable virtual channel while fault budget
    /// remains).
    Drop { src: usize, dst: usize },
    /// Bounded-fault mode: re-enqueue a copy of the head of the
    /// (src, dst) channel (a network duplicate).
    Duplicate { src: usize, dst: usize },
    /// Bounded-fault mode: mark the head of the (src, dst) channel
    /// corrupt (a payload bit-flip the receiver's ECC detects).
    Corrupt { src: usize, dst: usize },
    /// Bounded-fault mode: fire `core`'s retry timeout (enabled while
    /// the core has an outstanding request and no message for it is in
    /// flight — i.e. exactly when recovery is the only way forward).
    Retry { core: usize },
}

/// Short rendering of one program step (`St b0`, `Ld(w1) b0`,
/// `Sc(d4) b1`).
pub fn describe_step(step: Step) -> String {
    match step.op {
        Op::Store => format!("St b{}", step.block),
        Op::Load { writer } => format!("Ld(w{writer}) b{}", step.block),
        Op::Scribble { d } => format!("Sc(d{d}) b{}", step.block),
    }
}

impl Action {
    /// Human-readable rendering, decoding node keys with `cores`.
    pub fn describe(&self, cores: usize) -> String {
        let ep = |k: usize| {
            if k < cores {
                format!("L1({k})")
            } else if k < 2 * cores {
                format!("Dir({})", k - cores)
            } else {
                format!("Mem({})", k - 2 * cores)
            }
        };
        match self {
            Action::Issue { core, step } => {
                format!("issue   core {core}: {}", describe_step(*step))
            }
            Action::Deliver { src, dst } => {
                format!("deliver {} -> {}", ep(*src), ep(*dst))
            }
            Action::GiTimeout { core } => format!("timeout core {core}"),
            Action::Drop { src, dst } => {
                format!("drop    {} -> {}", ep(*src), ep(*dst))
            }
            Action::Duplicate { src, dst } => {
                format!("dup     {} -> {}", ep(*src), ep(*dst))
            }
            Action::Corrupt { src, dst } => {
                format!("corrupt {} -> {}", ep(*src), ep(*dst))
            }
            Action::Retry { core } => format!("retry   core {core}"),
        }
    }
}

/// A deliberately injected protocol bug, applied at the network layer so
/// the real controllers stay untouched. Used to demonstrate that the
/// checker finds real violations and shrinks them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// An INV delivery is lost but its INV_ACK is forged: the directory
    /// believes the sharer invalidated while it still holds S — the
    /// classic skipped-invalidation bug (breaks SWMR / data-value).
    SkipInvalidation,
    /// An INV_ACK delivery is silently lost: the directory waits for an
    /// acknowledgement that never arrives (breaks liveness).
    DropInvAck,
    /// The named transition-table row is deleted from the protocol: the
    /// first time a controller dispatches through it, it raises a
    /// [`ghostwriter_core::ProtocolError`] instead (caught by the
    /// checker as an invariant violation and shrunk like any other).
    DeleteRow(&'static str),
}

impl Mutation {
    pub fn parse(s: &str) -> Option<Self> {
        if let Some(name) = s.strip_prefix("delete-row:") {
            return find_row(name).map(|row| Self::DeleteRow(row.name()));
        }
        match s {
            "skip-inv" => Some(Self::SkipInvalidation),
            "drop-inv-ack" => Some(Self::DropInvAck),
            _ => None,
        }
    }

    /// The canonical command-line token, the exact inverse of
    /// [`Mutation::parse`] (used in cache keys and replay commands).
    pub fn token(&self) -> String {
        match self {
            Self::SkipInvalidation => "skip-inv".into(),
            Self::DropInvAck => "drop-inv-ack".into(),
            Self::DeleteRow(name) => format!("delete-row:{name}"),
        }
    }
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.token())
    }
}

/// How an explored trace failed.
#[derive(Clone, Debug)]
pub enum Failure {
    /// A harness invariant reported a violation.
    Invariant(Violation),
    /// A terminal state that is not a completed quiescent run: some
    /// core waits forever.
    Deadlock { busy_cores: Vec<usize> },
    /// A controller panicked (an unhandled protocol race).
    Panic(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Invariant(v) => write!(f, "invariant violation: {v}"),
            Failure::Deadlock { busy_cores } => {
                write!(f, "deadlock: cores {busy_cores:?} blocked forever")
            }
            Failure::Panic(msg) => write!(f, "controller panic: {msg}"),
        }
    }
}

/// A failing action trace from the initial state, with its failure.
#[derive(Clone, Debug)]
pub struct Counterexample {
    pub trace: Vec<Action>,
    pub failure: Failure,
    /// How many leading actions of `trace` are the shard prefix the
    /// sharded sweep split the search at (0 for unsharded searches and
    /// after shrinking, which erases the shard structure).
    pub prefix_len: usize,
}

impl Counterexample {
    pub fn new(trace: Vec<Action>, failure: Failure) -> Self {
        Self {
            trace,
            failure,
            prefix_len: 0,
        }
    }

    /// Pretty multi-line rendering for CLI / panic messages. Actions
    /// inside the shard prefix are marked, so a trace that came out of
    /// the sharded sweep shows where frontier splitting ended and the
    /// shard-local search began.
    pub fn render(&self, cores: usize) -> String {
        let mut s = String::new();
        for (i, a) in self.trace.iter().enumerate() {
            let mark = if i < self.prefix_len {
                "  [shard prefix]"
            } else {
                ""
            };
            s.push_str(&format!("  {i:>3}. {}{mark}\n", a.describe(cores)));
        }
        s.push_str(&format!("  => {}\n", self.failure));
        s
    }
}

// ---------------------------------------------------------------------
// Configuration helpers (shared by the search, tests and the gwcheck
// CLI).
// ---------------------------------------------------------------------

/// Which protocol family a sweep exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    Mesi,
    Msi,
    Moesi,
    Mosi,
    Mesif,
    Ghostwriter,
    /// Ghostwriter's GS/GI rows composed over the MOESI base.
    GhostwriterMoesi,
}

impl ProtocolKind {
    /// Every checkable protocol, in sweep order.
    pub const ALL: [ProtocolKind; 7] = [
        Self::Mesi,
        Self::Msi,
        Self::Moesi,
        Self::Mosi,
        Self::Mesif,
        Self::Ghostwriter,
        Self::GhostwriterMoesi,
    ];

    /// The kind a [`parse_protocol`] token names, if the checker has one
    /// (it checks Ghostwriter over MESI and MOESI only).
    pub fn parse(s: &str) -> Option<Self> {
        let (protocol, base) = parse_protocol(s)?;
        Self::ALL
            .into_iter()
            .find(|k| k.base() == base && k.is_ghostwriter() == protocol.is_ghostwriter())
    }

    /// True for the kinds that add Ghostwriter's GS/GI rows.
    pub fn is_ghostwriter(&self) -> bool {
        matches!(self, Self::Ghostwriter | Self::GhostwriterMoesi)
    }

    /// Canonical command-line token (inverse of [`ProtocolKind::parse`],
    /// used in cache keys and replay commands).
    pub fn token(&self) -> &'static str {
        match self {
            Self::Mesi => "mesi",
            Self::Msi => "msi",
            Self::Moesi => "moesi",
            Self::Mosi => "mosi",
            Self::Mesif => "mesif",
            Self::Ghostwriter => "gw",
            Self::GhostwriterMoesi => "gw-moesi",
        }
    }

    /// The base row-set family this kind runs on.
    pub fn base(&self) -> BaseProtocol {
        match self {
            Self::Msi => BaseProtocol::Msi,
            Self::Moesi | Self::GhostwriterMoesi => BaseProtocol::Moesi,
            Self::Mosi => BaseProtocol::Mosi,
            Self::Mesif => BaseProtocol::Mesif,
            Self::Mesi | Self::Ghostwriter => BaseProtocol::Mesi,
        }
    }
}

/// Smallest power of two ≥ `n` (cache geometries must be powers of two).
fn pow2_at_least(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// A minimal system shape for model checking: single-set caches just big
/// enough to hold the pool (evictions and recalls are exercised by the
/// deeper sweeps that shrink the geometry instead).
pub fn check_config(kind: ProtocolKind, cores: usize, blocks: usize) -> SystemConfig {
    let gw = kind.is_ghostwriter().then_some(GwParams {
        scribe: ScribePolicy::Bitwise,
        enable_gs: true,
        enable_gi: true,
        gi_stores: GiStorePolicy::Fallback,
        max_hidden_writes: Some(3),
    });
    SystemConfig {
        cores,
        blocks,
        l1_sets: 1,
        l1_ways: pow2_at_least(blocks.min(2)),
        l2_sets: 1,
        l2_ways: pow2_at_least(blocks),
        gw,
        base: kind.base(),
        disabled_row: None,
        recovery: None,
    }
}

/// The per-step alphabet for a sweep: every op × every pool block.
/// Loads read every core's slot; Ghostwriter configs add scribbles.
pub fn step_alphabet(kind: ProtocolKind, cores: usize, blocks: usize) -> Vec<Step> {
    let mut ops = vec![Op::Store];
    for writer in 0..cores {
        ops.push(Op::Load { writer });
    }
    if kind.is_ghostwriter() {
        ops.push(Op::Scribble { d: 4 });
    }
    let mut steps = Vec::new();
    for block in 0..blocks {
        for &op in &ops {
            steps.push(Step { block, op });
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_kind_tokens_round_trip() {
        for k in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(k.token()), Some(k));
        }
        assert_eq!(
            ProtocolKind::parse("ghostwriter"),
            Some(ProtocolKind::Ghostwriter)
        );
        assert_eq!(
            ProtocolKind::parse("ghostwriter-moesi"),
            Some(ProtocolKind::GhostwriterMoesi)
        );
        // Valid simulator tokens the checker has no kind for.
        for token in ["gw-msi", "gw-mosi", "gw-mesif", "ghostwriter-msi"] {
            assert_eq!(ProtocolKind::parse(token), None, "{token}");
        }
        assert_eq!(ProtocolKind::parse("frobnicate"), None);
    }
}
