//! Bounded, exhaustive model checker for the MESI/MSI + GS/GI protocol.
//!
//! Where the random walker in `ghostwriter_core::tester` samples one
//! message interleaving per seed, this checker enumerates *every*
//! interleaving of a small configuration — 2–3 cores, 1–2 blocks,
//! bounded per-core access programs — subject only to the per-(src, dst)
//! FIFO ordering the real NoC guarantees. It drives the *real*
//! [`ghostwriter_core::l1::L1Cache`] and [`ghostwriter_core::dir::DirBank`]
//! controllers through the shared [`ghostwriter_core::harness::System`];
//! there is no re-specification of the protocol that could drift from
//! the implementation.
//!
//! The search is a depth-first enumeration with visited-set pruning on a
//! canonical state fingerprint (L1 states + directory entries + in-flight
//! message channels + oracle bookkeeping; see [`System::fingerprint`]).
//! Every transition re-checks the any-time invariants (SWMR, Ghostwriter
//! containment, the value oracle, the scribe error bound); every
//! terminal state is either quiescent — and then checked against the
//! directory-accuracy and data-value invariants — or reported as a
//! deadlock.
//!
//! On violation the checker emits a [`Counterexample`]: the action trace
//! from the initial state, greedily shrunk ([`Checker::shrink`]) and
//! deterministically replayable ([`Checker::replay`]) so a failure
//! reproduces as a plain `#[test]`. [`Mutation`] fault injection
//! (dropping or forging protocol messages in the harness network)
//! exists to prove the checker can actually catch protocol bugs.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ghostwriter_core::harness::{Op, System, SystemConfig, Violation};
use ghostwriter_core::l1::GwParams;
use ghostwriter_core::msg::{Msg, Payload, PayloadCtl, WireTag};
use ghostwriter_core::proto::find_row;
use ghostwriter_core::{
    parse_protocol, BaseProtocol, Coverage, GiStorePolicy, RecoveryParams, ScribePolicy,
};

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

/// A bounded access program: one step sequence per core.
pub type Program = Vec<Vec<Step>>;

/// One scheduling decision of the checker — the alphabet whose
/// interleavings the search enumerates.
///
/// `Issue` carries the step it issues, so a trace alone determines the
/// access program it exercises: counterexamples from the sharded
/// unified search ([`shard`]) and from per-program [`Checker`] runs
/// share one format, one renderer and one replay path.
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

/// Delivers the head of `key`, applying `mutation`'s network-layer
/// corruption when it matches. The one implementation shared by the
/// per-program [`Checker`] and the sharded unified search, so a
/// mutation means exactly the same fault in both engines.
pub(crate) fn deliver_mutated(
    sys: &mut System,
    mutation: Option<Mutation>,
    key: (usize, usize),
) -> Result<(), Violation> {
    match (mutation, sys.peek_channel(key)) {
        (Some(Mutation::SkipInvalidation), Some(m)) if matches!(m.payload, PayloadCtl::Inv) => {
            // The L1 never sees the INV, but the directory gets the
            // ack it is waiting for.
            let lost = sys.drop_message(key).expect("peeked message present");
            sys.inject(Msg {
                src: lost.dst,
                dst: lost.src,
                block: lost.block,
                payload: Payload::InvAck,
                tag: WireTag::default(),
            });
            Ok(())
        }
        (Some(Mutation::DropInvAck), Some(m)) if matches!(m.payload, PayloadCtl::InvAck) => {
            sys.drop_message(key).expect("peeked message present");
            Ok(())
        }
        _ => sys.deliver(key),
    }
}

/// Appends the bounded-fault actions enabled in `sys`: drop/duplicate
/// on every faultable channel head and corrupt on every corruptible
/// head while `budget_left`, plus a retry wherever a core is wedged
/// (outstanding request, nothing in flight for it — recovery is the
/// only way forward, so retries are never budget-gated). Shared by the
/// per-program [`Checker`] and the sharded unified search so a fault
/// means exactly the same thing in both engines.
pub(crate) fn fault_actions(sys: &System, cores: usize, budget_left: bool, acts: &mut Vec<Action>) {
    if budget_left {
        for (src, dst) in sys.channels() {
            if sys.head_faultable((src, dst)) {
                acts.push(Action::Drop { src, dst });
                acts.push(Action::Duplicate { src, dst });
            }
            if sys.head_corruptible((src, dst)) {
                acts.push(Action::Corrupt { src, dst });
            }
        }
    }
    for core in 0..cores {
        if sys.needs_retry(core) {
            acts.push(Action::Retry { core });
        }
    }
}

/// Applies one bounded-fault action (the caller accounts the budget).
pub(crate) fn apply_fault(sys: &mut System, action: Action) -> Result<(), Violation> {
    match action {
        Action::Drop { src, dst } => {
            sys.drop_message((src, dst));
            Ok(())
        }
        Action::Duplicate { src, dst } => {
            sys.duplicate_head((src, dst));
            Ok(())
        }
        Action::Corrupt { src, dst } => {
            sys.taint_head((src, dst));
            Ok(())
        }
        Action::Retry { core } => sys.retry(core).map(|_| ()),
        _ => unreachable!("not a fault action"),
    }
}

/// The recovery parameters a fault budget of `k` turns on: the checker
/// profile, with the retry budget widened to cover `k` (every dropped
/// message may cost one retry, and the exhaustive sweep must not trip
/// `retry_exhausted` spuriously).
pub(crate) fn recovery_for_budget(k: usize) -> RecoveryParams {
    RecoveryParams {
        max_retries: (k as u32).max(RecoveryParams::checker().max_retries),
        ..RecoveryParams::checker()
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

/// Outcome of a bounded search.
#[derive(Debug)]
pub struct CheckReport {
    /// Distinct states visited (after fingerprint dedup).
    pub states: usize,
    /// Transitions applied (including ones into already-visited states).
    pub transitions: usize,
    /// Deepest trace explored.
    pub max_depth: usize,
    /// True if the depth or state bound cut the search short — the space
    /// was *not* exhausted.
    pub truncated: bool,
    /// Union of the transition-table rows exercised anywhere in the
    /// explored state space (union over all DFS branches; counts are an
    /// over-approximation, zero/non-zero is exact).
    pub coverage: Coverage,
    /// First failure found, already shrunk, if any.
    pub counterexample: Option<Counterexample>,
}

/// The bounded model checker: a system shape, a fixed access program,
/// optional fault injection, and search bounds.
#[derive(Clone, Debug)]
pub struct Checker {
    pub sys: SystemConfig,
    pub program: Program,
    pub mutation: Option<Mutation>,
    /// Bounded-fault mode: up to this many message faults (drop,
    /// duplicate, corrupt) become explicit schedule actions, and the
    /// recovery rows ([`RecoveryParams::checker`], with the retry
    /// budget widened to cover the fault budget) are enabled so the
    /// search proves every ≤k-fault trace still completes. `0` (the
    /// default) leaves the space and the fingerprints exactly as
    /// before.
    pub fault_budget: usize,
    /// Also interleave GI-timeout sweeps into the schedule (only does
    /// anything in Ghostwriter configurations).
    pub explore_gi_timeouts: bool,
    /// Bound on trace length.
    pub max_depth: usize,
    /// Bound on distinct visited states.
    pub max_states: usize,
}

impl Checker {
    /// A checker over `sys` running `program`, with defaults that fully
    /// exhaust small configurations.
    pub fn new(sys: SystemConfig, program: Program) -> Self {
        assert_eq!(program.len(), sys.cores, "one program per core");
        Self {
            sys,
            program,
            mutation: None,
            fault_budget: 0,
            explore_gi_timeouts: false,
            max_depth: 256,
            max_states: 1_000_000,
        }
    }

    fn enabled(&self, sys: &System, pcs: &[usize], used: usize) -> Vec<Action> {
        let mut acts = Vec::new();
        for (core, &pc) in pcs.iter().enumerate() {
            if pc < self.program[core].len() && sys.core_idle(core) {
                acts.push(Action::Issue {
                    core,
                    step: self.program[core][pc],
                });
            }
        }
        for (src, dst) in sys.channels() {
            acts.push(Action::Deliver { src, dst });
        }
        if self.fault_budget > 0 {
            fault_actions(sys, self.sys.cores, used < self.fault_budget, &mut acts);
        }
        if self.explore_gi_timeouts {
            for core in 0..self.sys.cores {
                if sys.has_gi(core) {
                    acts.push(Action::GiTimeout { core });
                }
            }
        }
        acts
    }

    /// Applies `action` (which must be enabled), running the per-step
    /// invariant checks and converting controller panics into
    /// [`Failure::Panic`].
    fn apply(
        &self,
        sys: &mut System,
        pcs: &mut [usize],
        used: &mut usize,
        action: Action,
    ) -> Result<(), Failure> {
        let step_result = catch_unwind(AssertUnwindSafe(|| match action {
            Action::Issue { core, step } => {
                pcs[core] += 1;
                sys.issue(core, step.block, step.op)
            }
            Action::Deliver { src, dst } => deliver_mutated(sys, self.mutation, (src, dst)),
            Action::GiTimeout { core } => sys.gi_timeout(core),
            Action::Drop { .. } | Action::Duplicate { .. } | Action::Corrupt { .. } => {
                *used += 1;
                apply_fault(sys, action)
            }
            Action::Retry { .. } => apply_fault(sys, action),
        }));
        match step_result {
            Ok(Ok(())) => sys.check_swmr().map_err(Failure::Invariant),
            Ok(Err(v)) => Err(Failure::Invariant(v)),
            Err(payload) => Err(Failure::Panic(panic_text(payload))),
        }
    }

    /// What a terminal (no enabled actions) state means: a completed
    /// quiescent run is checked against the quiescence invariants;
    /// anything else is blocked forever.
    fn terminal_failure(&self, sys: &System, pcs: &[usize]) -> Option<Failure> {
        let done = pcs
            .iter()
            .enumerate()
            .all(|(c, &pc)| pc == self.program[c].len());
        if done && sys.quiescent() {
            sys.check_quiescent().err().map(Failure::Invariant)
        } else {
            Some(Failure::Deadlock {
                busy_cores: sys.busy_cores(),
            })
        }
    }

    /// The initial system, with any [`Mutation::DeleteRow`] applied at
    /// construction (the row is deleted from the shared table, so both
    /// the search and every shrinking replay see the same mutant).
    fn initial_system(&self) -> System {
        let mut cfg = self.sys;
        if let Some(Mutation::DeleteRow(name)) = self.mutation {
            cfg.disabled_row = Some(name);
        }
        if self.fault_budget > 0 {
            cfg.recovery = Some(recovery_for_budget(self.fault_budget));
        }
        System::new(cfg)
    }

    /// Runs the bounded exhaustive search. Stops at the first failure,
    /// which is returned shrunk.
    pub fn check(&self) -> CheckReport {
        let mut report = CheckReport {
            states: 0,
            transitions: 0,
            max_depth: 0,
            truncated: false,
            coverage: Coverage::default(),
            counterexample: None,
        };
        let sys = self.initial_system();
        let pcs = vec![0usize; self.sys.cores];
        let mut visited: HashSet<(u128, Vec<usize>, usize)> = HashSet::new();
        visited.insert((sys.fingerprint(), pcs.clone(), 0));
        report.states = 1;
        let mut path = Vec::new();
        let found = self.dfs(&sys, &pcs, 0, &mut visited, &mut path, &mut report);
        report.counterexample = found.map(|cex| self.shrink(cex));
        report
    }

    fn dfs(
        &self,
        sys: &System,
        pcs: &[usize],
        used: usize,
        visited: &mut HashSet<(u128, Vec<usize>, usize)>,
        path: &mut Vec<Action>,
        report: &mut CheckReport,
    ) -> Option<Counterexample> {
        report.max_depth = report.max_depth.max(path.len());
        let actions = self.enabled(sys, pcs, used);
        if actions.is_empty() {
            return self
                .terminal_failure(sys, pcs)
                .map(|failure| Counterexample::new(path.clone(), failure));
        }
        if path.len() >= self.max_depth || report.states >= self.max_states {
            report.truncated = true;
            return None;
        }
        for action in actions {
            let mut next = sys.clone();
            let mut next_pcs = pcs.to_vec();
            let mut next_used = used;
            path.push(action);
            report.transitions += 1;
            let applied = self.apply(&mut next, &mut next_pcs, &mut next_used, action);
            report.coverage.merge(&next.stats().coverage);
            match applied {
                Err(failure) => {
                    let cex = Counterexample::new(path.clone(), failure);
                    path.pop();
                    return Some(cex);
                }
                Ok(()) => {
                    if visited.insert((next.fingerprint(), next_pcs.clone(), next_used)) {
                        report.states += 1;
                        if let Some(cex) =
                            self.dfs(&next, &next_pcs, next_used, visited, path, report)
                        {
                            path.pop();
                            return Some(cex);
                        }
                    }
                }
            }
            path.pop();
        }
        None
    }

    /// Deterministically replays `trace` from the initial state through
    /// the same controllers. Returns the failure it reproduces, or
    /// `None` if the trace is clean (or contains an action that is not
    /// enabled at its position — relevant while shrinking).
    pub fn replay(&self, trace: &[Action]) -> Option<Failure> {
        let mut sys = self.initial_system();
        let mut pcs = vec![0usize; self.sys.cores];
        let mut used = 0usize;
        for &action in trace {
            if !self.enabled(&sys, &pcs, used).contains(&action) {
                return None;
            }
            if let Err(failure) = self.apply(&mut sys, &mut pcs, &mut used, action) {
                return Some(failure);
            }
        }
        // A trace may also fail by *ending* in a bad terminal state
        // (deadlocks are a property of the final state, not of any
        // single action).
        if self.enabled(&sys, &pcs, used).is_empty() {
            self.terminal_failure(&sys, &pcs)
        } else {
            None
        }
    }

    /// Greedy delta-debugging: repeatedly drop any single action whose
    /// removal still reproduces *a* failure, until no single removal
    /// does. The result replays deterministically.
    pub fn shrink(&self, cex: Counterexample) -> Counterexample {
        let mut trace = cex.trace;
        let mut failure = cex.failure;
        loop {
            let mut improved = false;
            let mut i = 0;
            while i < trace.len() {
                let mut candidate = trace.clone();
                candidate.remove(i);
                if let Some(f) = self.replay(&candidate) {
                    trace = candidate;
                    failure = f;
                    improved = true;
                } else {
                    i += 1;
                }
            }
            if !improved {
                break;
            }
        }
        Counterexample::new(trace, failure)
    }
}

pub(crate) fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// Configuration + program enumeration helpers (shared by tests and the
// gwcheck CLI).
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

/// Every program assigning each of `cores` cores a sequence of
/// `len` steps from `alphabet` — the |alphabet|^(cores·len) cartesian
/// product, enumerated in mixed-radix order.
pub fn enumerate_programs(alphabet: &[Step], cores: usize, len: usize) -> Vec<Program> {
    let digits = cores * len;
    let radix = alphabet.len();
    let total = radix.checked_pow(digits as u32).expect("sweep too large");
    (0..total)
        .map(|mut idx| {
            (0..cores)
                .map(|_| {
                    (0..len)
                        .map(|_| {
                            let s = alphabet[idx % radix];
                            idx /= radix;
                            s
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Outcome of sweeping a whole program family.
#[derive(Debug, Default)]
pub struct SweepReport {
    pub programs: usize,
    pub states: usize,
    pub transitions: usize,
    pub truncated: bool,
    /// Union of the per-program [`CheckReport::coverage`] unions.
    pub coverage: Coverage,
    pub counterexample: Option<(Program, Counterexample)>,
}

/// Exhaustively checks every interleaving of every program of
/// `ops_per_core` steps per core. Stops at the first failure.
pub fn sweep(
    kind: ProtocolKind,
    cores: usize,
    blocks: usize,
    ops_per_core: usize,
    explore_gi_timeouts: bool,
    mutation: Option<Mutation>,
) -> SweepReport {
    let cfg = check_config(kind, cores, blocks);
    let alphabet = step_alphabet(kind, cores, blocks);
    let mut report = SweepReport::default();
    for program in enumerate_programs(&alphabet, cores, ops_per_core) {
        let mut checker = Checker::new(cfg, program.clone());
        checker.explore_gi_timeouts = explore_gi_timeouts;
        checker.mutation = mutation;
        let r = checker.check();
        report.programs += 1;
        report.states += r.states;
        report.transitions += r.transitions;
        report.truncated |= r.truncated;
        report.coverage.merge(&r.coverage);
        if let Some(cex) = r.counterexample {
            report.counterexample = Some((program, cex));
            return report;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_core_program(a: &[(usize, Op)], b: &[(usize, Op)]) -> Program {
        let conv = |steps: &[(usize, Op)]| {
            steps
                .iter()
                .map(|&(block, op)| Step { block, op })
                .collect::<Vec<_>>()
        };
        vec![conv(a), conv(b)]
    }

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

    #[test]
    fn single_store_explores_and_passes() {
        let cfg = check_config(ProtocolKind::Mesi, 2, 1);
        let program = two_core_program(&[(0, Op::Store)], &[]);
        let report = Checker::new(cfg, program).check();
        assert!(report.counterexample.is_none());
        assert!(!report.truncated);
        assert!(report.states > 1);
    }

    #[test]
    fn conflicting_writers_explore_cleanly() {
        // Both cores store the same block: the full upgrade/invalidate
        // race space must stay invariant-clean.
        let cfg = check_config(ProtocolKind::Mesi, 2, 1);
        let program = two_core_program(
            &[(0, Op::Store), (0, Op::Store)],
            &[(0, Op::Store), (0, Op::Store)],
        );
        let report = Checker::new(cfg, program).check();
        assert!(
            report.counterexample.is_none(),
            "{}",
            report.counterexample.unwrap().render(2)
        );
        assert!(!report.truncated);
        // The race has genuinely many interleavings.
        assert!(report.states > 100, "only {} states", report.states);
    }

    #[test]
    fn replay_reproduces_search_failures_deterministically() {
        // Store-then-load demotes the owner to a sharer; the second
        // store's UPGRADE generates the INV the mutation corrupts.
        let cfg = check_config(ProtocolKind::Mesi, 2, 1);
        let program = two_core_program(
            &[(0, Op::Load { writer: 1 })],
            &[(0, Op::Store), (0, Op::Store)],
        );
        let mut checker = Checker::new(cfg, program);
        checker.mutation = Some(Mutation::SkipInvalidation);
        let report = checker.check();
        let cex = report.counterexample.expect("mutation must be caught");
        for _ in 0..3 {
            let f = checker.replay(&cex.trace).expect("replay reproduces");
            assert!(
                matches!(f, Failure::Invariant(_) | Failure::Deadlock { .. }),
                "unexpected failure class: {f}"
            );
        }
    }

    #[test]
    fn skipped_invalidation_caught_and_shrunk_short() {
        // The acceptance-criteria test: a seeded skipped-invalidation
        // bug is found by exhaustive search and the shrunk
        // counterexample replays in at most 20 steps.
        let cfg = check_config(ProtocolKind::Mesi, 2, 1);
        let program = two_core_program(
            &[(0, Op::Load { writer: 1 })],
            &[(0, Op::Store), (0, Op::Store)],
        );
        let mut checker = Checker::new(cfg, program);
        checker.mutation = Some(Mutation::SkipInvalidation);
        let report = checker.check();
        let cex = report
            .counterexample
            .expect("skipped invalidation must violate an invariant");
        assert!(
            cex.trace.len() <= 20,
            "shrunk counterexample too long:\n{}",
            cex.render(2)
        );
        assert!(
            checker.replay(&cex.trace).is_some(),
            "shrunk trace must still reproduce"
        );
    }

    #[test]
    fn dropped_inv_ack_deadlocks() {
        let cfg = check_config(ProtocolKind::Mesi, 2, 1);
        let program = two_core_program(
            &[(0, Op::Load { writer: 1 })],
            &[(0, Op::Store), (0, Op::Store)],
        );
        let mut checker = Checker::new(cfg, program);
        checker.mutation = Some(Mutation::DropInvAck);
        let report = checker.check();
        let cex = report.counterexample.expect("lost ack must deadlock");
        assert!(
            matches!(cex.failure, Failure::Deadlock { .. }),
            "expected deadlock, got: {}",
            cex.failure
        );
        assert!(cex.trace.len() <= 20, "{}", cex.render(2));
    }

    #[test]
    fn program_enumeration_is_the_full_product() {
        let alphabet = step_alphabet(ProtocolKind::Mesi, 2, 1);
        assert_eq!(alphabet.len(), 3); // Store, Load{0}, Load{1}
        let programs = enumerate_programs(&alphabet, 2, 2);
        assert_eq!(programs.len(), 81); // 3^(2*2)
        let unique: std::collections::HashSet<_> = programs.iter().collect();
        assert_eq!(unique.len(), 81);
    }
}
