//! **Resource governance and deterministic fault injection.**
//!
//! Two process-global facilities the engines consult at their loop heads,
//! both following the `dic_trace` off-by-default contract: when nothing is
//! armed, the fast path is a single relaxed atomic load and the layer
//! costs nothing measurable.
//!
//! # Deadlines
//!
//! [`arm_deadline`] installs a cooperative wall-clock budget for the
//! process; [`deadline_expired`] is the checkpoint every engine polls at
//! its existing iteration boundaries — BDD fixpoint steps, CDCL restart
//! boundaries, explicit-state expansion batches, per-candidate boundaries
//! in the gap phase. A tripped deadline surfaces as the engine's
//! `Deadline` error variant (`SymbolicError::Deadline`,
//! `FsmError::Deadline`, `SatResult::Unknown`), which the pipeline treats
//! as a *degradable* refusal: it stops cleanly and reports everything it
//! settled before the trip. Nothing is ever preempted mid-operation, so
//! every data structure stays consistent.
//!
//! # Fault injection
//!
//! [`arm_fault`] (or `SPECMATCHER_FAULT=site:nth:kind` via
//! [`arm_fault_from_env`]) plants one deterministic fault: the *nth* time
//! execution crosses the named [`Site`], [`hit`] returns the armed
//! [`FaultKind`] and the seam converts it into the corresponding organic
//! failure — a `NodeLimit` refusal, a deadline trip, a SAT `Unknown`, or
//! a worker panic. Sites are counted per process with monotone hit
//! counters, so the same schedule replays identically run after run; the
//! robustness suite sweeps sites × schedules × backends and asserts that
//! no injection ever escapes as a process abort or an unsound verdict.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Sites and kinds
// ---------------------------------------------------------------------------

/// Every counted injection site — one per fallible seam in the engines.
///
/// The dotted names are the stable spelling used by `SPECMATCHER_FAULT`
/// and by the `fault.injected` trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// `SymbolicModel::check_limit` — the BDD node-budget checkpoint
    /// between fixpoint steps (`bdd.alloc`).
    BddAlloc,
    /// The loop head of every symbolic fixpoint
    /// (`reachable`/`until`/`hull`/`rings_to`) — `symbolic.fixpoint_step`.
    SymbolicFixpointStep,
    /// `Solver::solve` entry in the CDCL solver (`sat.solve`).
    SatSolve,
    /// The per-candidate boundary of the gap-phase closure drivers in
    /// `weaken.rs` (`gap.worker`).
    GapWorker,
    /// The BMC unrolling encoder in `BmcSession::query` (`bmc.encode`).
    BmcEncode,
}

/// Number of distinct sites.
pub const NUM_SITES: usize = 5;

impl Site {
    /// Every site, in canonical order.
    pub const ALL: [Site; NUM_SITES] = [
        Site::BddAlloc,
        Site::SymbolicFixpointStep,
        Site::SatSolve,
        Site::GapWorker,
        Site::BmcEncode,
    ];

    /// The site's stable dotted name.
    pub const fn name(self) -> &'static str {
        match self {
            Site::BddAlloc => "bdd.alloc",
            Site::SymbolicFixpointStep => "symbolic.fixpoint_step",
            Site::SatSolve => "sat.solve",
            Site::GapWorker => "gap.worker",
            Site::BmcEncode => "bmc.encode",
        }
    }

    fn parse(s: &str) -> Option<Site> {
        Site::ALL.into_iter().find(|site| site.name() == s)
    }
}

/// What an armed site forces when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The seam raises its resource refusal (`SymbolicError::NodeLimit`
    /// where expressible; seams with no node budget degrade to their
    /// closest refusal).
    NodeLimit,
    /// The seam behaves as if the cooperative deadline tripped.
    Deadline,
    /// The seam returns an inconclusive verdict (`SatResult::Unknown`;
    /// the BMC tier reports "no refutation found", which is always sound).
    SatUnknown,
    /// The seam panics — exercising the `catch_unwind` isolation of the
    /// gap scope.
    Panic,
}

impl FaultKind {
    /// The kind's stable spelling in `SPECMATCHER_FAULT`.
    pub const fn name(self) -> &'static str {
        match self {
            FaultKind::NodeLimit => "node-limit",
            FaultKind::Deadline => "deadline",
            FaultKind::SatUnknown => "sat-unknown",
            FaultKind::Panic => "panic",
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "node-limit" => Some(FaultKind::NodeLimit),
            "deadline" => Some(FaultKind::Deadline),
            "sat-unknown" => Some(FaultKind::SatUnknown),
            "panic" => Some(FaultKind::Panic),
            _ => None,
        }
    }
}

/// One armed injection: fire `kind` at the `nth` (1-based) crossing of
/// `site`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    pub site: Site,
    pub nth: u64,
    pub kind: FaultKind,
}

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

/// Fast-path gate: true iff a fault plan is armed. A single relaxed load
/// in [`hit`] keeps the unarmed cost negligible (the `dic_trace::enabled`
/// pattern).
static FAULT_ARMED: AtomicBool = AtomicBool::new(false);

/// The armed plan, packed into atomics so [`hit`] needs no lock:
/// site index, nth, kind index.
static FAULT_SITE: AtomicUsize = AtomicUsize::new(0);
static FAULT_NTH: AtomicU64 = AtomicU64::new(0);
static FAULT_KIND: AtomicUsize = AtomicUsize::new(0);

/// Monotone per-site hit counters (count regardless of which site is
/// armed, so a schedule's nth is stable across plans).
static HITS: [AtomicU64; NUM_SITES] = [const { AtomicU64::new(0) }; NUM_SITES];

/// Deadline gate + the armed deadline as nanoseconds since [`anchor`].
/// Zero in `DEADLINE_AT_NS` is never a valid armed value (arming adds a
/// positive budget to a positive elapsed reading... not guaranteed — the
/// gate bool is the source of truth; the cell only stores the instant).
static DEADLINE_ARMED: AtomicBool = AtomicBool::new(false);
static DEADLINE_AT_NS: AtomicU64 = AtomicU64::new(0);

/// Process-wide time anchor, fixed on first use, so instants can live in
/// an atomic as elapsed-nanos.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------------
// Deadline API
// ---------------------------------------------------------------------------

/// Arms the process-wide cooperative deadline `budget` from now. Engines
/// poll [`deadline_expired`] at their iteration boundaries and surface a
/// trip as their `Deadline` error.
pub fn arm_deadline(budget: Duration) {
    let now = anchor().elapsed();
    let at = now.saturating_add(budget);
    DEADLINE_AT_NS.store(
        at.as_nanos().min(u64::MAX as u128) as u64,
        Ordering::Relaxed,
    );
    DEADLINE_ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the deadline (tests; daemon mode will re-arm per request).
pub fn disarm_deadline() {
    DEADLINE_ARMED.store(false, Ordering::Relaxed);
}

/// The cooperative checkpoint: true iff a deadline is armed and has
/// passed. Counts a `deadline.trips` trace counter per observed trip.
#[inline]
pub fn deadline_expired() -> bool {
    if !DEADLINE_ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let expired = anchor().elapsed().as_nanos() as u64 >= DEADLINE_AT_NS.load(Ordering::Relaxed);
    if expired && dic_trace::enabled() {
        dic_trace::count(dic_trace::Counter::DeadlineTrips, 1);
    }
    expired
}

// ---------------------------------------------------------------------------
// Fault API
// ---------------------------------------------------------------------------

/// Arms `plan`; replaces any previously armed plan. Hit counters are NOT
/// reset — see [`reset_hits`].
pub fn arm_fault(plan: FaultPlan) {
    FAULT_SITE.store(plan.site as usize, Ordering::Relaxed);
    FAULT_NTH.store(plan.nth, Ordering::Relaxed);
    FAULT_KIND.store(plan.kind as usize, Ordering::Relaxed);
    FAULT_ARMED.store(true, Ordering::Relaxed);
}

/// Disarms fault injection.
pub fn disarm_fault() {
    FAULT_ARMED.store(false, Ordering::Relaxed);
}

/// Resets every per-site hit counter to zero, so a test harness can replay
/// the same `nth` schedule against a fresh run without a fresh process.
pub fn reset_hits() {
    for h in &HITS {
        h.store(0, Ordering::Relaxed);
    }
}

/// The injection checkpoint every seam calls: counts the crossing and
/// returns the armed [`FaultKind`] exactly at the armed site's nth hit.
/// One relaxed load when nothing is armed.
#[inline]
pub fn hit(site: Site) -> Option<FaultKind> {
    if !FAULT_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    hit_slow(site)
}

#[cold]
fn hit_slow(site: Site) -> Option<FaultKind> {
    let n = HITS[site as usize].fetch_add(1, Ordering::Relaxed) + 1;
    if FAULT_SITE.load(Ordering::Relaxed) != site as usize || FAULT_NTH.load(Ordering::Relaxed) != n
    {
        return None;
    }
    let kind = match FAULT_KIND.load(Ordering::Relaxed) {
        k if k == FaultKind::NodeLimit as usize => FaultKind::NodeLimit,
        k if k == FaultKind::Deadline as usize => FaultKind::Deadline,
        k if k == FaultKind::SatUnknown as usize => FaultKind::SatUnknown,
        _ => FaultKind::Panic,
    };
    if dic_trace::enabled() {
        dic_trace::count(dic_trace::Counter::FaultInjected, 1);
        dic_trace::event("fault.injected", &[("nth", n)]);
    }
    Some(kind)
}

/// The message every injected panic carries, so the `catch_unwind`
/// isolation layer (and the robustness suite) can tell an injected panic
/// from an organic one.
pub const INJECTED_PANIC_MSG: &str = "injected fault: panic";

/// Panics with [`INJECTED_PANIC_MSG`] — the one spelling of the injected
/// worker panic, kept here so every seam agrees.
pub fn injected_panic() -> ! {
    panic!("{}", INJECTED_PANIC_MSG);
}

// ---------------------------------------------------------------------------
// Environment parsing (strict, fail-closed)
// ---------------------------------------------------------------------------

/// Strict parse of `SPECMATCHER_FAULT=site:nth:kind`. `Ok(None)` when
/// unset; any malformed value is an error naming the variable — a typo'd
/// schedule must refuse, not silently run fault-free.
pub fn fault_from_env() -> Result<Option<FaultPlan>, String> {
    let raw = match std::env::var("SPECMATCHER_FAULT") {
        Ok(v) => v,
        Err(_) => return Ok(None),
    };
    parse_fault(&raw).map(Some).map_err(|detail| {
        format!(
            "invalid SPECMATCHER_FAULT value {raw:?}: {detail} (expected \
             site:nth:kind, e.g. gap.worker:3:panic; sites: bdd.alloc, \
             symbolic.fixpoint_step, sat.solve, gap.worker, bmc.encode; \
             kinds: node-limit, deadline, sat-unknown, panic)"
        )
    })
}

fn parse_fault(raw: &str) -> Result<FaultPlan, String> {
    let mut parts = raw.split(':');
    let (site, nth, kind) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(s), Some(n), Some(k), None) => (s, n, k),
        _ => return Err("expected exactly three ':'-separated fields".into()),
    };
    let site = Site::parse(site).ok_or_else(|| format!("unknown site {site:?}"))?;
    let nth: u64 = match nth.parse() {
        Ok(n) if n >= 1 => n,
        _ => return Err(format!("nth must be a positive integer, got {nth:?}")),
    };
    let kind = FaultKind::parse(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?;
    Ok(FaultPlan { site, nth, kind })
}

/// Parses and arms `SPECMATCHER_FAULT` in one step (binary startup).
pub fn arm_fault_from_env() -> Result<(), String> {
    if let Some(plan) = fault_from_env()? {
        arm_fault(plan);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The fault/deadline cells are process globals; tests that arm them
    /// serialize here.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn unarmed_hit_is_none_and_counts_nothing_armed() {
        let _g = LOCK.lock().unwrap();
        disarm_fault();
        assert_eq!(hit(Site::SatSolve), None);
        assert_eq!(hit(Site::GapWorker), None);
    }

    #[test]
    fn fires_exactly_at_the_nth_hit_of_the_armed_site() {
        let _g = LOCK.lock().unwrap();
        reset_hits();
        arm_fault(FaultPlan {
            site: Site::GapWorker,
            nth: 3,
            kind: FaultKind::NodeLimit,
        });
        assert_eq!(hit(Site::GapWorker), None);
        assert_eq!(hit(Site::SatSolve), None); // other sites never fire
        assert_eq!(hit(Site::GapWorker), None);
        assert_eq!(hit(Site::GapWorker), Some(FaultKind::NodeLimit));
        assert_eq!(hit(Site::GapWorker), None); // one-shot
        disarm_fault();
    }

    #[test]
    fn deadline_trips_after_the_budget_and_disarms_cleanly() {
        let _g = LOCK.lock().unwrap();
        arm_deadline(Duration::from_secs(3600));
        assert!(!deadline_expired());
        arm_deadline(Duration::ZERO);
        assert!(deadline_expired());
        disarm_deadline();
        assert!(!deadline_expired());
    }

    #[test]
    fn fault_spec_parses_strictly() {
        assert_eq!(
            parse_fault("gap.worker:3:panic"),
            Ok(FaultPlan {
                site: Site::GapWorker,
                nth: 3,
                kind: FaultKind::Panic,
            })
        );
        assert_eq!(
            parse_fault("bdd.alloc:1:node-limit"),
            Ok(FaultPlan {
                site: Site::BddAlloc,
                nth: 1,
                kind: FaultKind::NodeLimit,
            })
        );
        for bad in [
            "",
            "gap.worker",
            "gap.worker:3",
            "gap.worker:3:panic:extra",
            "gap.wrker:3:panic",
            "gap.worker:0:panic",
            "gap.worker:-1:panic",
            "gap.worker:x:panic",
            "gap.worker:3:explode",
        ] {
            assert!(parse_fault(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn every_site_round_trips_through_its_name() {
        for site in Site::ALL {
            assert_eq!(Site::parse(site.name()), Some(site));
        }
        for kind in [
            FaultKind::NodeLimit,
            FaultKind::Deadline,
            FaultKind::SatUnknown,
            FaultKind::Panic,
        ] {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
    }
}
