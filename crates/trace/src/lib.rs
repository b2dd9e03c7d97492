//! `dic_trace` — zero-dependency structured observability for the
//! specmatcher engines.
//!
//! Three primitives, all process-global and disabled by default:
//!
//! * **Spans** — hierarchical timed regions (`span("phase.primary")`)
//!   forming a tree per run: the pipeline phases at the top, engine
//!   fixpoints and worker threads below. Guards are RAII; worker threads
//!   attach to a coordinator span via [`span_with_parent`].
//! * **Counters / gauges** — lock-free atomic tallies of engine work
//!   (BDD operations, memo/unique-table hits, cache hits, states
//!   expanded, Algorithm 1 verdict classes). Counters saturate at
//!   `u64::MAX` instead of wrapping; gauges track a level and a peak.
//! * **Events** — point-in-time occurrences with numeric fields
//!   (BDD compactions), attributed to the enclosing span.
//!
//! Everything funnels into three sinks: a rendered `profile:` tree
//! ([`render_profile`]), a JSONL stream ([`write_jsonl`], replayable via
//! [`parse_jsonl`] + [`render_tree`]), and programmatic snapshots
//! ([`CounterSnapshot`]) that `dic_bench` embeds next to wall times.
//!
//! # Overhead contract
//!
//! Tracing is **off** unless [`set_enabled`]`(true)` ran. Call sites in
//! hot engine loops gate on [`enabled`] — a single `Relaxed` atomic
//! load — before touching anything else, so the disabled path costs one
//! predictable branch and golden reports, verdicts and benchmark wall
//! times are unchanged. Nothing here is sampled: when tracing is on the
//! numbers are exact.
//!
//! # Clock
//!
//! All timestamps are nanoseconds since a process-wide monotonic epoch
//! (first use of the crate). [`Stopwatch`] exposes the same clock for
//! plain duration measurements, so report timings, bench numbers and
//! span durations never disagree about what "now" is.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Global enable gate and clock
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Whether tracing is on. One `Relaxed` load — this is the check every
/// instrumented call site performs before doing any other work.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off process-wide. Flip it *before* the work you
/// want captured; spans already open keep their state.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide monotonic epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Clears all recorded spans, events, counters and gauges (the enable
/// flag is left alone). Call between independent runs sharing a process.
pub fn reset() {
    lock(&SPANS).clear();
    lock(&EVENTS).clear();
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for g in &GAUGES {
        g.store(0, Ordering::Relaxed);
    }
    NEXT_SPAN_ID.store(1, Ordering::Relaxed);
}

/// Locks a mutex, surviving poisoning (a panicking test thread must not
/// wedge every later trace consumer).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// The shared stopwatch
// ---------------------------------------------------------------------------

/// A duration timer on the same monotonic clock the spans use.
///
/// `dic_core` phase timings, `dic_bench` rows and the CLI's `table1`
/// summary all measure through this type, so every reported number is
/// derived from one clock.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start_ns: u64,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch { start_ns: now_ns() }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(now_ns().saturating_sub(self.start_ns))
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Every engine counter, one atomic cell each. Counter semantics are
/// monotone totals for the process (use [`CounterSnapshot`] deltas for
/// per-phase attribution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `BddManager::ite` top-level + recursive invocations.
    BddIteOps,
    /// `BddManager::and_exists` recursive invocations.
    BddAndExistsOps,
    /// `BddManager::rename` recursive invocations.
    BddRenameOps,
    /// Operation-memo probes across `ite`/`and_exists`/`rename`.
    BddMemoLookups,
    /// Operation-memo probes that hit.
    BddMemoHits,
    /// Unique-table probes in `mk`.
    BddUniqueLookups,
    /// Unique-table probes that found an existing node.
    BddUniqueHits,
    /// Retired: the engine no longer reorders variables, so nothing
    /// counts this and it always reads 0. Kept because the benchmark
    /// probe reads it.
    BddReorders,
    /// Compacting rebuilds of the BDD manager.
    BddCompactions,
    /// Garbage collections: every rebuild of the BDD manager — equal to
    /// `bdd.compactions`, kept because the benchmark probe reads it.
    BddGcCollections,
    /// Image/preimage steps computed through a partitioned (clustered)
    /// transition relation.
    BddPartitionImages,
    /// Formula translations answered from the GBA cache.
    GbaCacheHits,
    /// Formula translations that ran the tableau pipeline.
    GbaCacheMisses,
    /// Explicit-engine states expanded (Kripke build + product search).
    ExplicitStatesExpanded,
    /// Algorithm 1 weakening candidates enumerated (post-budget).
    GapCandidatesEnumerated,
    /// Candidates rejected by a pooled bad run or a directed probe.
    GapProbeRefuted,
    /// Candidates settled by implication into an accepted closer.
    GapImplicationSettled,
    /// Candidates that went all the way to a closure fixpoint.
    GapFixpointVerified,
    /// Budget slots refunded by the weakest-merge antichain.
    GapBudgetRefunds,
    /// CDCL decision-variable picks across all bounded-tier solves.
    SatDecisions,
    /// CDCL conflicts hit (first-UIP analysis rounds).
    SatConflicts,
    /// Clauses learned by conflict analysis.
    SatLearnedClauses,
    /// Bounded refutation queries issued ahead of closure fixpoints.
    BmcQueries,
    /// Bounded queries that found a refuting run (fixpoint skipped).
    BmcRefuted,
    /// Deterministic faults fired by an armed `dic_fault` plan.
    FaultInjected,
    /// Gap candidates left `unknown` by a degradable refusal, a caught
    /// worker panic, or a deadline stop.
    GapUnknownCandidates,
    /// Cooperative deadline checkpoints observed expired.
    DeadlineTrips,
}

impl Counter {
    /// Every counter, in canonical (rendering) order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::BddIteOps,
        Counter::BddAndExistsOps,
        Counter::BddRenameOps,
        Counter::BddMemoLookups,
        Counter::BddMemoHits,
        Counter::BddUniqueLookups,
        Counter::BddUniqueHits,
        Counter::BddReorders,
        Counter::BddCompactions,
        Counter::BddGcCollections,
        Counter::BddPartitionImages,
        Counter::GbaCacheHits,
        Counter::GbaCacheMisses,
        Counter::ExplicitStatesExpanded,
        Counter::GapCandidatesEnumerated,
        Counter::GapProbeRefuted,
        Counter::GapImplicationSettled,
        Counter::GapFixpointVerified,
        Counter::GapBudgetRefunds,
        Counter::SatDecisions,
        Counter::SatConflicts,
        Counter::SatLearnedClauses,
        Counter::BmcQueries,
        Counter::BmcRefuted,
        Counter::FaultInjected,
        Counter::GapUnknownCandidates,
        Counter::DeadlineTrips,
    ];

    /// The counter's stable dotted name (JSONL and profile key).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::BddIteOps => "bdd.ite_ops",
            Counter::BddAndExistsOps => "bdd.and_exists_ops",
            Counter::BddRenameOps => "bdd.rename_ops",
            Counter::BddMemoLookups => "bdd.memo_lookups",
            Counter::BddMemoHits => "bdd.memo_hits",
            Counter::BddUniqueLookups => "bdd.unique_lookups",
            Counter::BddUniqueHits => "bdd.unique_hits",
            Counter::BddReorders => "bdd.reorders",
            Counter::BddCompactions => "bdd.compactions",
            Counter::BddGcCollections => "bdd.gc_collections",
            Counter::BddPartitionImages => "bdd.partition_images",
            Counter::GbaCacheHits => "gba.cache_hits",
            Counter::GbaCacheMisses => "gba.cache_misses",
            Counter::ExplicitStatesExpanded => "explicit.states_expanded",
            Counter::GapCandidatesEnumerated => "gap.candidates_enumerated",
            Counter::GapProbeRefuted => "gap.probe_refuted",
            Counter::GapImplicationSettled => "gap.implication_settled",
            Counter::GapFixpointVerified => "gap.fixpoint_verified",
            Counter::GapBudgetRefunds => "gap.budget_refunds",
            Counter::SatDecisions => "sat.decisions",
            Counter::SatConflicts => "sat.conflicts",
            Counter::SatLearnedClauses => "sat.learned_clauses",
            Counter::BmcQueries => "bmc.queries",
            Counter::BmcRefuted => "bmc.refuted",
            Counter::FaultInjected => "fault.injected",
            Counter::GapUnknownCandidates => "gap.unknown_candidates",
            Counter::DeadlineTrips => "deadline.trips",
        }
    }
}

/// Number of distinct counters.
pub const NUM_COUNTERS: usize = 27;

static COUNTERS: [AtomicU64; NUM_COUNTERS] = [const { AtomicU64::new(0) }; NUM_COUNTERS];

/// Adds `n` to a counter, saturating at `u64::MAX` (a saturated counter
/// stays saturated rather than wrapping back to small values).
///
/// No-op while tracing is disabled; hot call sites should additionally
/// gate on [`enabled`] to skip argument computation.
pub fn count(counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    let cell = &COUNTERS[counter as usize];
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// The current total of a counter.
pub fn counter_value(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// A point-in-time copy of every counter; subtract two snapshots to
/// attribute work to a phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; NUM_COUNTERS],
}

impl CounterSnapshot {
    /// Captures all current counter totals.
    pub fn capture() -> Self {
        let mut values = [0u64; NUM_COUNTERS];
        for (slot, cell) in values.iter_mut().zip(&COUNTERS) {
            *slot = cell.load(Ordering::Relaxed);
        }
        CounterSnapshot { values }
    }

    /// Work done since `self` was captured (saturating per counter).
    pub fn delta_since(&self) -> Self {
        let now = Self::capture();
        let mut values = [0u64; NUM_COUNTERS];
        for (slot, (cur, base)) in values.iter_mut().zip(now.values.iter().zip(&self.values)) {
            *slot = cur.saturating_sub(*base);
        }
        CounterSnapshot { values }
    }

    /// The snapshot's value for one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    /// Adds `other` into `self` counter-by-counter (saturating) —
    /// accumulates per-property phase deltas into a per-run total.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        for (slot, v) in self.values.iter_mut().zip(&other.values) {
            *slot = slot.saturating_add(*v);
        }
    }

    /// `(name, value)` for every counter with a nonzero value, in
    /// canonical order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .filter_map(|&c| {
                let v = self.get(c);
                (v != 0).then_some((c.name(), v))
            })
            .collect()
    }

    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// Level-style metrics (current value + peak), one atomic cell each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Live nodes in the BDD store right now.
    BddLiveNodes,
    /// High-water mark of [`Gauge::BddLiveNodes`].
    BddPeakNodes,
    /// States of the largest explicit Kripke structure built.
    ExplicitKripkeStates,
    /// States of the largest base product the explicit engine
    /// materialized.
    ExplicitProductStates,
}

impl Gauge {
    /// Every gauge, in canonical order.
    pub const ALL: [Gauge; NUM_GAUGES] = [
        Gauge::BddLiveNodes,
        Gauge::BddPeakNodes,
        Gauge::ExplicitKripkeStates,
        Gauge::ExplicitProductStates,
    ];

    /// The gauge's stable dotted name.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::BddLiveNodes => "bdd.live_nodes",
            Gauge::BddPeakNodes => "bdd.peak_nodes",
            Gauge::ExplicitKripkeStates => "explicit.kripke_states",
            Gauge::ExplicitProductStates => "explicit.product_states",
        }
    }
}

/// Number of distinct gauges.
pub const NUM_GAUGES: usize = 4;

static GAUGES: [AtomicU64; NUM_GAUGES] = [const { AtomicU64::new(0) }; NUM_GAUGES];

/// Sets a gauge to `v`. No-op while tracing is disabled.
pub fn gauge_set(gauge: Gauge, v: u64) {
    if enabled() {
        GAUGES[gauge as usize].store(v, Ordering::Relaxed);
    }
}

/// Raises a gauge to `v` if `v` exceeds its current value.
pub fn gauge_max(gauge: Gauge, v: u64) {
    if enabled() {
        GAUGES[gauge as usize].fetch_max(v, Ordering::Relaxed);
    }
}

/// The current value of a gauge.
pub fn gauge_value(gauge: Gauge) -> u64 {
    GAUGES[gauge as usize].load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EVENTS: Mutex<Vec<EventRecord>> = Mutex::new(Vec::new());

thread_local! {
    /// Per-thread stack of open span ids; the top is the parent of the
    /// next span (and the attribution target of events).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A closed span, as recorded (and as replayed from JSONL).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique id (ids start at 1; 0 is "no parent").
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Dotted span name (`phase.primary`, `gap.worker`, …).
    pub name: String,
    /// Open timestamp, ns since the trace epoch.
    pub start_ns: u64,
    /// Close timestamp, ns since the trace epoch.
    pub end_ns: u64,
    /// Numeric attachments, in insertion order.
    pub meta: Vec<(String, u64)>,
}

/// A point event, as recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Dotted event name (`bdd.compact`, `run.aborted`, …).
    pub name: String,
    /// Timestamp, ns since the trace epoch.
    pub at_ns: u64,
    /// Id of the span the event occurred under (0 = none).
    pub span: u64,
    /// Numeric fields, in insertion order.
    pub fields: Vec<(String, u64)>,
}

/// RAII guard for an open span; the span closes (and is recorded) on
/// drop. Obtained from [`span`] or [`span_with_parent`].
#[must_use = "a span measures the region it is alive for"]
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    parent: u64,
    start_ns: u64,
    meta: Vec<(&'static str, u64)>,
    live: bool,
}

/// Opens a span under the current thread's innermost open span.
/// Returns an inert guard while tracing is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::dead();
    }
    let parent = current_span_id();
    open_span(name, parent)
}

/// Opens a span under an explicit parent id — the cross-thread variant:
/// a coordinator captures [`current_span_id`] and hands it to worker
/// threads so their spans nest correctly in the tree.
pub fn span_with_parent(name: &'static str, parent: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard::dead();
    }
    open_span(name, parent)
}

/// The innermost open span id on this thread (0 when none).
pub fn current_span_id() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

fn open_span(name: &'static str, parent: u64) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        id,
        name,
        parent,
        start_ns: now_ns(),
        meta: Vec::new(),
        live: true,
    }
}

impl SpanGuard {
    fn dead() -> Self {
        SpanGuard {
            id: 0,
            name: "",
            parent: 0,
            start_ns: 0,
            meta: Vec::new(),
            live: false,
        }
    }

    /// Attaches a numeric key/value to the span (summed across a group
    /// in the rendered tree). No-op on an inert guard.
    pub fn meta(&mut self, key: &'static str, value: u64) {
        if self.live {
            self.meta.push((key, value));
        }
    }

    /// The span's id, for use as a cross-thread parent (0 when inert).
    pub fn id(&self) -> u64 {
        if self.live {
            self.id
        } else {
            0
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end_ns = now_ns();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            start_ns: self.start_ns,
            end_ns,
            meta: self.meta.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        };
        lock(&SPANS).push(record);
    }
}

/// Records a point event with numeric fields, attributed to the current
/// thread's innermost open span. No-op while tracing is disabled.
pub fn event(name: &'static str, fields: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let record = EventRecord {
        name: name.to_string(),
        at_ns: now_ns(),
        span: current_span_id(),
        fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    };
    lock(&EVENTS).push(record);
}

// ---------------------------------------------------------------------------
// Capture + rendering
// ---------------------------------------------------------------------------

/// Everything the trace recorded: the input of [`render_tree`] and the
/// output of [`parse_jsonl`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceData {
    /// Closed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Events, in occurrence order.
    pub events: Vec<EventRecord>,
    /// Nonzero counters as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Nonzero gauges as `(name, value)`.
    pub gauges: Vec<(String, u64)>,
}

/// Snapshots the live trace state (spans closed so far, events, nonzero
/// counters and gauges).
pub fn capture() -> TraceData {
    let counters = CounterSnapshot::capture()
        .nonzero()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    let gauges = Gauge::ALL
        .iter()
        .filter_map(|&g| {
            let v = gauge_value(g);
            (v != 0).then(|| (g.name().to_string(), v))
        })
        .collect();
    TraceData {
        spans: lock(&SPANS).clone(),
        events: lock(&EVENTS).clone(),
        counters,
        gauges,
    }
}

/// Renders the live trace as a `profile:` tree (see [`render_tree`]).
pub fn render_profile() -> String {
    render_tree(&capture())
}

/// Renders a `profile:` block: the span tree (sibling spans grouped by
/// name with summed durations, `(xN)` multiplicities and summed meta),
/// then nonzero counters, gauges and an event summary. Deterministic in
/// the data, so a JSONL replay renders the identical block.
pub fn render_tree(data: &TraceData) -> String {
    let mut out = String::from("profile:\n");
    let mut lines: Vec<(usize, String, String)> = Vec::new();

    // Index spans: children by parent id, roots = parent 0 or unknown.
    let known: std::collections::HashSet<u64> = data.spans.iter().map(|s| s.id).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in data.spans.iter().enumerate() {
        if s.parent != 0 && known.contains(&s.parent) {
            children.entry(s.parent).or_default().push(i);
        } else {
            roots.push(i);
        }
    }
    collect_group(data, &roots, &children, 1, &mut lines);

    if lines.is_empty() {
        out.push_str("  (no spans recorded)\n");
    } else {
        let width = lines
            .iter()
            .map(|(depth, label, _)| 2 * depth + label.len())
            .max()
            .unwrap_or(0);
        for (depth, label, rest) in &lines {
            let pad = width - (2 * depth + label.len());
            let _ = writeln!(
                out,
                "{}{}{}  {}",
                "  ".repeat(*depth),
                label,
                " ".repeat(pad),
                rest
            );
        }
    }

    if !data.counters.is_empty() {
        out.push_str("  counters:\n");
        let mut counters = data.counters.clone();
        counters.sort();
        let width = counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &counters {
            let _ = writeln!(out, "    {name:<width$}  {value}");
        }
    }
    if !data.gauges.is_empty() {
        out.push_str("  gauges:\n");
        let mut gauges = data.gauges.clone();
        gauges.sort();
        let width = gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &gauges {
            let _ = writeln!(out, "    {name:<width$}  {value}");
        }
    }
    if !data.events.is_empty() {
        let mut by_name: Vec<(String, usize)> = Vec::new();
        for e in &data.events {
            match by_name.iter_mut().find(|(n, _)| *n == e.name) {
                Some((_, c)) => *c += 1,
                None => by_name.push((e.name.clone(), 1)),
            }
        }
        by_name.sort();
        let summary: Vec<String> = by_name.iter().map(|(n, c)| format!("{n} x{c}")).collect();
        let _ = writeln!(
            out,
            "  events: {} ({})",
            data.events.len(),
            summary.join(", ")
        );
    }
    out
}

/// Emits one tree level: the spans at `indices`, grouped by name in
/// first-start order, then each group's children one level deeper.
fn collect_group(
    data: &TraceData,
    indices: &[usize],
    children: &HashMap<u64, Vec<usize>>,
    depth: usize,
    lines: &mut Vec<(usize, String, String)>,
) {
    let mut ordered = indices.to_vec();
    ordered.sort_by_key(|&i| (data.spans[i].start_ns, data.spans[i].id));
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for i in ordered {
        let name = &data.spans[i].name;
        match groups.iter_mut().find(|(n, _)| n == name) {
            Some((_, members)) => members.push(i),
            None => groups.push((name.clone(), vec![i])),
        }
    }
    for (name, members) in groups {
        let total_ns: u64 = members
            .iter()
            .map(|&i| data.spans[i].end_ns.saturating_sub(data.spans[i].start_ns))
            .sum();
        let mut meta: Vec<(String, u64)> = Vec::new();
        for &i in &members {
            for (k, v) in &data.spans[i].meta {
                match meta.iter_mut().find(|(n, _)| n == k) {
                    Some((_, total)) => *total = total.saturating_add(*v),
                    None => meta.push((k.clone(), *v)),
                }
            }
        }
        let mut rest = fmt_ns(total_ns);
        if members.len() > 1 {
            let _ = write!(rest, " (x{})", members.len());
        }
        if !meta.is_empty() {
            let parts: Vec<String> = meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = write!(rest, " [{}]", parts.join(" "));
        }
        lines.push((depth, name, rest));
        let nested: Vec<usize> = members
            .iter()
            .flat_map(|&i| children.get(&data.spans[i].id).cloned().unwrap_or_default())
            .collect();
        if !nested.is_empty() {
            collect_group(data, &nested, children, depth + 1, lines);
        }
    }
}

/// Human-readable duration from nanoseconds (deterministic — replay
/// renders byte-identical trees).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ---------------------------------------------------------------------------
// JSONL sink + replay
// ---------------------------------------------------------------------------

/// Schema identifier written as the first JSONL line.
pub const JSONL_SCHEMA: &str = "specmatcher-trace/1";

/// Serializes trace data as JSONL: a `meta` header line, then one line
/// per span close, event, nonzero counter and nonzero gauge. All
/// timestamps are ns offsets from the trace epoch.
pub fn to_jsonl(data: &TraceData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\"type\":\"meta\",\"schema\":\"{JSONL_SCHEMA}\"}}");
    for s in &data.spans {
        let _ = write!(
            out,
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"meta\":{}}}",
            s.id,
            s.parent,
            escape(&s.name),
            s.start_ns,
            s.end_ns,
            flat_obj(&s.meta),
        );
        out.push('\n');
    }
    for e in &data.events {
        let _ = write!(
            out,
            "{{\"type\":\"event\",\"name\":\"{}\",\"at_ns\":{},\"span\":{},\"fields\":{}}}",
            escape(&e.name),
            e.at_ns,
            e.span,
            flat_obj(&e.fields),
        );
        out.push('\n');
    }
    for (name, value) in &data.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            escape(name)
        );
    }
    for (name, value) in &data.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}",
            escape(name)
        );
    }
    out
}

/// Writes the live trace to `path` as JSONL (see [`to_jsonl`]).
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_jsonl(&capture()))
}

fn flat_obj(fields: &[(String, u64)]) -> String {
    let parts: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One parsed JSON value of the trace schema (numbers are u64; nested
/// objects are flat name→number maps).
enum JsonValue {
    Num(u64),
    Str(String),
    Obj(Vec<(String, u64)>),
}

/// Parses a JSONL trace produced by [`to_jsonl`] back into [`TraceData`]
/// (unknown line types are skipped so the schema can grow).
pub fn parse_jsonl(text: &str) -> Result<TraceData, String> {
    let mut data = TraceData::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = parse_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let get_str = |key: &str| -> Result<String, String> {
            match obj.iter().find(|(k, _)| k == key) {
                Some((_, JsonValue::Str(s))) => Ok(s.clone()),
                _ => Err(format!("line {}: missing string \"{key}\"", lineno + 1)),
            }
        };
        let get_num = |key: &str| -> Result<u64, String> {
            match obj.iter().find(|(k, _)| k == key) {
                Some((_, JsonValue::Num(n))) => Ok(*n),
                _ => Err(format!("line {}: missing number \"{key}\"", lineno + 1)),
            }
        };
        let get_obj = |key: &str| -> Vec<(String, u64)> {
            match obj.iter().find(|(k, _)| k == key) {
                Some((_, JsonValue::Obj(fields))) => fields.clone(),
                _ => Vec::new(),
            }
        };
        match get_str("type")?.as_str() {
            "span" => data.spans.push(SpanRecord {
                id: get_num("id")?,
                parent: get_num("parent")?,
                name: get_str("name")?,
                start_ns: get_num("start_ns")?,
                end_ns: get_num("end_ns")?,
                meta: get_obj("meta"),
            }),
            "event" => data.events.push(EventRecord {
                name: get_str("name")?,
                at_ns: get_num("at_ns")?,
                span: get_num("span")?,
                fields: get_obj("fields"),
            }),
            "counter" => data.counters.push((get_str("name")?, get_num("value")?)),
            "gauge" => data.gauges.push((get_str("name")?, get_num("value")?)),
            _ => {} // meta header, future line types
        }
    }
    Ok(data)
}

/// Parses one flat-or-two-level JSON object line of the trace schema.
fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    expect(bytes, &mut pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, &mut pos);
    if peek(bytes, pos) == Some(b'}') {
        return Ok(fields);
    }
    loop {
        skip_ws(bytes, &mut pos);
        let key = parse_string(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        expect(bytes, &mut pos, b':')?;
        skip_ws(bytes, &mut pos);
        let value = match peek(bytes, pos) {
            Some(b'"') => JsonValue::Str(parse_string(bytes, &mut pos)?),
            Some(b'{') => {
                expect(bytes, &mut pos, b'{')?;
                let mut inner = Vec::new();
                skip_ws(bytes, &mut pos);
                if peek(bytes, pos) == Some(b'}') {
                    pos += 1;
                } else {
                    loop {
                        skip_ws(bytes, &mut pos);
                        let k = parse_string(bytes, &mut pos)?;
                        skip_ws(bytes, &mut pos);
                        expect(bytes, &mut pos, b':')?;
                        skip_ws(bytes, &mut pos);
                        let v = parse_number(bytes, &mut pos)?;
                        inner.push((k, v));
                        skip_ws(bytes, &mut pos);
                        match peek(bytes, pos) {
                            Some(b',') => pos += 1,
                            Some(b'}') => {
                                pos += 1;
                                break;
                            }
                            _ => return Err("expected ',' or '}' in nested object".into()),
                        }
                    }
                }
                JsonValue::Obj(inner)
            }
            Some(c) if c.is_ascii_digit() => JsonValue::Num(parse_number(bytes, &mut pos)?),
            _ => return Err(format!("unexpected value at byte {pos}")),
        };
        fields.push((key, value));
        skip_ws(bytes, &mut pos);
        match peek(bytes, pos) {
            Some(b',') => pos += 1,
            Some(b'}') => return Ok(fields),
            _ => return Err("expected ',' or '}'".into()),
        }
    }
}

fn peek(bytes: &[u8], pos: usize) -> Option<u8> {
    bytes.get(pos).copied()
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while peek(bytes, *pos) == Some(b' ') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if peek(bytes, *pos) == Some(c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match peek(bytes, *pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match peek(bytes, *pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    _ => return Err("unsupported escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid utf-8")?;
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let start = *pos;
    while peek(bytes, *pos).is_some_and(|c| c.is_ascii_digit()) {
        *pos += 1;
    }
    if start == *pos {
        return Err(format!("expected a number at byte {start}"));
    }
    std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| "invalid utf-8".to_string())?
        .parse::<u64>()
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace state is process-global; tests serialize on this lock
    /// and reset the state while holding it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_enabled(true);
        reset();
        guard
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = exclusive();
        set_enabled(false);
        {
            let mut s = span("nope");
            s.meta("k", 1);
            count(Counter::BddIteOps, 5);
            gauge_max(Gauge::BddPeakNodes, 10);
            event("nope.event", &[("a", 1)]);
        }
        let data = capture();
        assert!(data.spans.is_empty());
        assert!(data.events.is_empty());
        assert!(data.counters.is_empty());
        assert!(data.gauges.is_empty());
        set_enabled(true);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let _g = exclusive();
        count(Counter::GapBudgetRefunds, u64::MAX);
        count(Counter::GapBudgetRefunds, u64::MAX);
        count(Counter::GapBudgetRefunds, 7);
        assert_eq!(counter_value(Counter::GapBudgetRefunds), u64::MAX);
        let snap = CounterSnapshot::capture();
        assert_eq!(snap.get(Counter::GapBudgetRefunds), u64::MAX);
        assert_eq!(snap.nonzero(), vec![("gap.budget_refunds", u64::MAX)],);
    }

    #[test]
    fn snapshot_deltas_attribute_per_phase() {
        let _g = exclusive();
        count(Counter::BddIteOps, 10);
        let before = CounterSnapshot::capture();
        count(Counter::BddIteOps, 32);
        count(Counter::GbaCacheHits, 4);
        let delta = before.delta_since();
        assert_eq!(delta.get(Counter::BddIteOps), 32);
        assert_eq!(delta.get(Counter::GbaCacheHits), 4);
        assert!(!delta.is_empty());
    }

    #[test]
    fn spans_nest_across_worker_threads() {
        let _g = exclusive();
        let parent_id;
        {
            let coordinator = span("gap.verify");
            parent_id = coordinator.id();
            assert_eq!(current_span_id(), parent_id);
            std::thread::scope(|scope| {
                for w in 0..3u64 {
                    scope.spawn(move || {
                        let mut worker = span_with_parent("gap.worker", parent_id);
                        worker.meta("claimed", w + 1);
                        // A span opened inside the worker nests under it.
                        let inner = span("gap.closure");
                        assert_eq!(current_span_id(), inner.id());
                        drop(inner);
                        assert_eq!(current_span_id(), worker.id());
                    });
                }
            });
        }
        let data = capture();
        let find = |name: &str| -> Vec<&SpanRecord> {
            data.spans.iter().filter(|s| s.name == name).collect()
        };
        let coordinator = find("gap.verify");
        assert_eq!(coordinator.len(), 1);
        let workers = find("gap.worker");
        assert_eq!(workers.len(), 3);
        for w in &workers {
            assert_eq!(w.parent, coordinator[0].id);
            assert!(w.start_ns <= w.end_ns);
        }
        let claimed: u64 = workers
            .iter()
            .flat_map(|w| w.meta.iter())
            .filter(|(k, _)| k == "claimed")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(claimed, 1 + 2 + 3);
        for inner in find("gap.closure") {
            assert!(workers.iter().any(|w| w.id == inner.parent));
        }
    }

    #[test]
    fn jsonl_replays_into_the_identical_tree() {
        let _g = exclusive();
        {
            let _root = span("check");
            {
                let mut phase = span("phase.primary");
                phase.meta("conjuncts", 3);
                event("bdd.compact", &[("live_before", 100), ("live_after", 40)]);
            }
            let _a = span("phase.gap_find");
            count(Counter::BddIteOps, 1234);
            gauge_max(Gauge::BddPeakNodes, 999);
        }
        let live = capture();
        let replayed = parse_jsonl(&to_jsonl(&live)).expect("own output parses");
        assert_eq!(live, replayed);
        assert_eq!(render_tree(&live), render_tree(&replayed));
        let tree = render_tree(&live);
        assert!(tree.starts_with("profile:\n"));
        assert!(tree.contains("check"));
        assert!(tree.contains("phase.primary"));
        assert!(tree.contains("[conjuncts=3]"));
        assert!(tree.contains("bdd.ite_ops"));
        assert!(tree.contains("bdd.peak_nodes"));
        assert!(tree.contains("events: 1 (bdd.compact x1)"));
    }

    #[test]
    fn sibling_spans_group_with_multiplicity() {
        let _g = exclusive();
        {
            let _root = span("check");
            for _ in 0..3 {
                let _r = span("symbolic.reachable");
            }
        }
        let tree = render_profile();
        assert!(tree.contains("symbolic.reachable"), "{tree}");
        assert!(tree.contains("(x3)"), "{tree}");
    }

    #[test]
    fn stopwatch_measures_on_the_shared_clock() {
        let t = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let d = t.elapsed();
        assert!(d >= Duration::from_millis(2));
        assert!(d < Duration::from_secs(10));
    }

    #[test]
    fn parser_rejects_garbage_and_skips_unknown_types() {
        let _g = exclusive();
        assert!(parse_jsonl("{\"type\":").is_err());
        assert!(parse_jsonl("{\"type\":\"span\",\"id\":1}").is_err());
        let ok = parse_jsonl("{\"type\":\"future-thing\",\"name\":\"x\"}\n").expect("skips");
        assert!(ok.spans.is_empty());
    }
}
