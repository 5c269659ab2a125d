//! The cycle-level pipeline simulation engine (paper Sec. 3.3, 4.1).
//!
//! The digital part of a computational CIS is a dataflow graph: compute
//! units connected through memory structures. CamJ simulates it cycle by
//! cycle to (1) verify the pipeline never stalls against the constant-
//! rate pixel readout, (2) measure the digital latency `T_D` that the
//! analog delay estimator subtracts from the frame budget, and (3) count
//! the per-unit active cycles and per-memory accesses that the energy
//! equations consume.
//!
//! ## Token model
//!
//! Pixels flow as *fluid* token quantities (`f64`): each unit fires at
//! most once per cycle, consuming `consumer_rate` pixels from every
//! in-edge and producing `producer_rate` pixels into every out-edge
//! (after its pipeline has filled). Fractional rates model units that
//! fire every few cycles. Cycle counts, stall detection, and access
//! totals are exact; sub-cycle interleaving inside one unit is not
//! modelled — the same fidelity class as the paper's simulator, which
//! tracks shapes per cycle, not bit-level timing.
//!
//! ## Sources
//!
//! A [`SourceMode::Continuous`] source models the pixel readout: light
//! arrives whether or not the pipeline is ready, so a full output buffer
//! is an immediate [`SimError::SourceOverflow`]. A [`SourceMode::Elastic`]
//! source waits politely — used when measuring best-case digital latency.
//!
//! ## Hot/cold split
//!
//! The steady-state token loop is the workspace's hottest code: one
//! elastic latency run plus one stall-check run is the entire cost of a
//! sweep cache miss. [`PipelineSim::run`] therefore steps a string-free
//! [`arena::Arena`] — contiguous per-edge and per-node arrays laid out
//! in topological firing order, with CSR adjacency lists — and touches
//! the named graph only on the *cold* side: at build time (port checks),
//! after a stall verdict (error formatting), and when assembling the
//! final [`SimReport`]. By construction no `String` is reachable from
//! the stepping path, which a counting-allocator test pins.
//!
//! ## Skipping cycles
//!
//! Most cycles of a frame are never stepped one by one. When only the
//! sources fire (every consumer is waiting for tokens), or the same
//! node set fires two cycles running, and `Arena::leap_cycles` proves
//! the firing set persists, a *leap* replays the coming cycles
//! bit-identically to stepping them: every edge's `produced` and
//! `consumed` are then independent chains `x ← fl(x + rate)`, which
//! the `replay` module advances in closed form, one piece per float
//! binade the accumulator crosses. Within a piece the buffer level is
//! monotone, so the running peak and the consumer's level check are
//! settled at the piece's two endpoints, and a bisection finds the
//! first short cycle, where stepping resumes. On Ed-Gaze 2D-In, five
//! leaps replay 264,696 of 264,708 cycles. Leaping is the only way
//! cycles are skipped, and proptests over random graphs hold every
//! leap to a run that steps every cycle.

use crate::memory::MemoryStructure;

use super::error::SimError;
use super::report::{BufferStats, SimReport, StageStats};

use arena::{Arena, RunState, Verdict};

/// Relative scale of the fluid-token comparison tolerance, see
/// [`flow_tolerance`].
const REL_EPS: f64 = 1e-8;
/// Tolerance floor: guards edges whose totals are far below one pixel.
const MIN_EPS: f64 = 1e-12;
/// Tolerance ceiling: even the largest edge never gets a slack
/// approaching one pixel.
const MAX_EPS: f64 = 1e-2;

/// Tolerance for fluid-token comparisons on an edge moving `total`
/// pixels with `min_rate` as its slower per-cycle rate.
///
/// Fractional rates accumulate floating-point error over millions of
/// cycles, and the error is proportional to the magnitude of the
/// accumulators — an absolute epsilon either drowns sub-pixel rates
/// (too large) or trips on drift at O(10⁷)-pixel frames (too small).
/// The tolerance therefore scales with the edge's token volume,
/// clamped to [`MIN_EPS`]..[`MAX_EPS`] and capped well below the edge's
/// slower rate so flow control (which compares against per-cycle
/// amounts) is never swamped.
fn flow_tolerance(total: f64, min_rate: f64) -> f64 {
    let scale = (total * REL_EPS).clamp(MIN_EPS, MAX_EPS);
    scale.min(0.25 * min_rate).max(MIN_EPS)
}

/// Handle to a node added to a [`PipelineSimBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// How a source behaves when its output buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceMode {
    /// Pixel readout: cannot be backpressured; overflow is an error.
    Continuous,
    /// Waits for space; used for latency measurement.
    Elastic,
}

#[derive(Debug, Clone)]
enum NodeKind {
    Source { mode: SourceMode },
    Stage { pipeline_depth: u32 },
}

/// Cold node record: names and adjacency for build-time validation,
/// stall diagnostics, and report assembly. Never touched while
/// stepping.
#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: NodeKind,
    in_edges: Vec<usize>,
    out_edges: Vec<usize>,
}

/// Cold edge record. The stepping path reads the compact
/// [`arena::HotEdge`] copy instead; this keeps the name and the
/// statistics-only fields (`reads_per_pixel`, port widths).
#[derive(Debug, Clone)]
struct Edge {
    name: String,
    capacity: f64,
    producer_rate: f64,
    consumer_rate: f64,
    total: f64,
    pixels_per_word: f64,
    read_ports: u32,
    write_ports: u32,
    /// Physical reads per fresh pixel consumed (stencil-window reuse,
    /// weight re-reads): flow control moves fresh pixels, the energy
    /// statistics multiply by this factor.
    reads_per_pixel: f64,
    /// Precomputed [`flow_tolerance`] — rates and totals are immutable
    /// after construction, and the simulation loop compares against
    /// this every edge every cycle.
    tolerance: f64,
}

impl Edge {
    /// This edge's fluid-token comparison tolerance.
    fn tol(&self) -> f64 {
        self.tolerance
    }
}

/// String-free hot state: everything [`PipelineSim::run`] touches per
/// cycle. Kept in a submodule so the split is visible at the type
/// level — no field in here can reach a `String`.
mod arena {
    use crate::sim::replay::{replay, Accumulators};

    /// Node behaviour, flattened for the stepping loop.
    #[derive(Debug, Clone, Copy)]
    pub(super) enum HotKind {
        /// Continuous source: stalling is a [`SourceOverflow`]
        /// verdict.
        ///
        /// [`SourceOverflow`]: crate::sim::SimError::SourceOverflow
        Continuous,
        /// Elastic source: waits for space.
        Elastic,
        /// Compute stage; produces once `fired + 1 >= depth`.
        Stage {
            /// Pipeline depth, pre-widened to the comparison type.
            depth: u64,
        },
    }

    /// The per-edge constants the stepping loop reads, contiguous and
    /// compact (one cache line holds a whole edge plus change).
    #[derive(Debug, Clone, Copy)]
    pub(super) struct HotEdge {
        pub capacity: f64,
        pub producer_rate: f64,
        pub consumer_rate: f64,
        pub total: f64,
        pub tolerance: f64,
        /// Precomputed `total - tolerance`: the "done" threshold both
        /// accumulators are compared against every cycle.
        pub done_at: f64,
    }

    /// The immutable simulation arena: nodes laid out in topological
    /// firing order (so the per-cycle scan is a linear walk), CSR
    /// adjacency lists, and the hot edge constants. Edge indices match
    /// the cold graph; node indices are arena-local with `orig`
    /// mapping back.
    #[derive(Debug)]
    pub(super) struct Arena {
        pub kinds: Vec<HotKind>,
        /// CSR starts into `in_list`, length `nodes + 1`.
        pub in_start: Vec<u32>,
        pub in_list: Vec<u32>,
        /// CSR starts into `out_list`, length `nodes + 1`.
        pub out_start: Vec<u32>,
        pub out_list: Vec<u32>,
        /// Arena node → original (insertion-order) node index.
        pub orig: Vec<u32>,
        /// Original node index → arena node index.
        pub arena_of: Vec<u32>,
        pub edges: Vec<HotEdge>,
        /// Edge → arena index of its producing node.
        pub edge_producer: Vec<u32>,
        /// Edge → arena index of its consuming node.
        pub edge_consumer: Vec<u32>,
    }

    /// Why the stepping loop stopped.
    #[derive(Debug, Clone, Copy)]
    pub(super) enum Verdict {
        /// Every edge moved its total: the frame completed.
        Done { cycles: u64 },
        /// A continuous source (arena index) stalled mid-cycle.
        Overflow { node: u32, cycle: u64 },
        /// No node fired this cycle.
        Deadlock { cycle: u64 },
        /// The cycle budget ran out.
        CycleLimit,
    }

    /// Mutable per-run state, all flat arrays indexed by edge or arena
    /// node. The `*_done` flags cache the monotone threshold
    /// comparisons (`produced >= done_at` can never become false
    /// again), and the `node_open`/`open_edges` counters turn the
    /// per-node and whole-graph done checks into O(1) reads.
    #[derive(Debug)]
    pub(super) struct RunState {
        pub produced: Vec<f64>,
        pub consumed: Vec<f64>,
        pub peak: Vec<f64>,
        pub fired: Vec<u64>,
        pub stalled: Vec<u64>,
        produced_done: Vec<bool>,
        consumed_done: Vec<bool>,
        /// Per arena node: in-edges not consumed-done plus out-edges
        /// not produced-done. Zero ⇔ the node is finished.
        node_open: Vec<u32>,
        /// Edges where either accumulator is still short of `done_at`.
        /// Zero ⇔ the frame is done.
        pub open_edges: u32,
        /// Cycles replayed by [`Arena::leap`] rather than stepped.
        pub leaped: u64,
        /// Per-edge firing amounts stashed by the check pass of
        /// [`Arena::try_fire`] so the apply pass skips the min-chain
        /// recomputation. Allocated once per run.
        amount: Vec<f64>,
        /// Steady-state anchor for the verdict-only early pass (see
        /// [`Arena::steady_pass`]): per-edge accumulators as of the
        /// anchor idle event, plus how many idle events have elapsed
        /// since.
        anchor_produced: Vec<f64>,
        anchor_consumed: Vec<f64>,
        anchor_open: u32,
        anchor_cycle: u64,
        anchor_events: u32,
        anchor_valid: bool,
    }

    impl RunState {
        pub(super) fn new(arena: &Arena) -> Self {
            let (n, m) = (arena.kinds.len(), arena.edges.len());
            let mut state = Self {
                produced: vec![0.0; m],
                consumed: vec![0.0; m],
                peak: vec![0.0; m],
                fired: vec![0; n],
                stalled: vec![0; n],
                produced_done: vec![false; m],
                consumed_done: vec![false; m],
                node_open: vec![0; n],
                open_edges: 0,
                leaped: 0,
                amount: vec![0.0; m],
                anchor_produced: vec![0.0; m],
                anchor_consumed: vec![0.0; m],
                anchor_open: 0,
                anchor_cycle: 0,
                anchor_events: 0,
                anchor_valid: false,
            };
            // Zero-total edges are born done (done_at < 0); everything
            // else opens both node counters.
            for (e, ed) in arena.edges.iter().enumerate() {
                let pd = 0.0 >= ed.done_at;
                let cd = 0.0 >= ed.done_at;
                state.produced_done[e] = pd;
                state.consumed_done[e] = cd;
                if !pd {
                    state.node_open[arena.edge_producer[e] as usize] += 1;
                }
                if !cd {
                    state.node_open[arena.edge_consumer[e] as usize] += 1;
                }
                if !(pd && cd) {
                    state.open_edges += 1;
                }
            }
            state
        }

        #[inline]
        fn mark_produced_done(&mut self, e: usize, producer: u32) {
            self.produced_done[e] = true;
            self.node_open[producer as usize] -= 1;
            if self.consumed_done[e] {
                self.open_edges -= 1;
            }
        }

        #[inline]
        fn mark_consumed_done(&mut self, e: usize, consumer: u32) {
            self.consumed_done[e] = true;
            self.node_open[consumer as usize] -= 1;
            if self.produced_done[e] {
                self.open_edges -= 1;
            }
        }
    }

    impl Arena {
        #[inline]
        fn in_edges(&self, ni: usize) -> &[u32] {
            &self.in_list[self.in_start[ni] as usize..self.in_start[ni + 1] as usize]
        }

        #[inline]
        fn out_edges(&self, ni: usize) -> &[u32] {
            &self.out_list[self.out_start[ni] as usize..self.out_start[ni + 1] as usize]
        }

        #[inline]
        fn production_enabled(&self, ni: usize, state: &RunState) -> bool {
            match self.kinds[ni] {
                HotKind::Continuous | HotKind::Elastic => true,
                HotKind::Stage { depth } => state.fired[ni] + 1 >= depth,
            }
        }

        /// Checks whether node `ni` can fire this cycle and, if so,
        /// fires it — one fused pass so the min-chains and levels are
        /// computed once instead of twice (check + apply). Amounts are
        /// stashed per edge in `state.amount` during the check pass;
        /// no state mutates unless every check passes, and on failure
        /// the method returns at the first violated edge, exactly like
        /// the split check used to.
        #[inline]
        pub(super) fn try_fire(&self, ni: usize, state: &mut RunState) -> bool {
            // Inputs: every unfinished in-edge must hold enough pixels
            // — unless the inputs are exhausted (drain phase).
            for &e in self.in_edges(ni) {
                let e = e as usize;
                if state.consumed_done[e] {
                    continue;
                }
                let ed = &self.edges[e];
                let need = ed.consumer_rate.min(ed.total - state.consumed[e]);
                let level = (state.produced[e] - state.consumed[e]).max(0.0);
                if level < need - ed.tolerance {
                    return false;
                }
                // Clamp to the actual level so float drift can never
                // push the buffer negative (the check above guaranteed
                // level ≥ need − EPS).
                state.amount[e] = need.min(level);
            }
            // Outputs: every unfinished out-edge must have space, once
            // the pipeline has filled.
            let enabled = self.production_enabled(ni, state);
            if enabled {
                for &e in self.out_edges(ni) {
                    let e = e as usize;
                    if state.produced_done[e] {
                        continue;
                    }
                    let ed = &self.edges[e];
                    let amount = ed.producer_rate.min(ed.total - state.produced[e]);
                    let level = (state.produced[e] - state.consumed[e]).max(0.0);
                    if ed.capacity - level < amount - ed.tolerance {
                        return false;
                    }
                    state.amount[e] = amount;
                }
            }
            // A node with nothing left to consume and production
            // disabled (or nothing left to produce) must not spin;
            // `node_open == 0` covers the fully-finished case, so here
            // at least one side has work. Apply the stashed amounts.
            for &e in self.in_edges(ni) {
                let e = e as usize;
                if state.consumed_done[e] {
                    continue;
                }
                state.consumed[e] += state.amount[e];
                if state.consumed[e] >= self.edges[e].done_at {
                    state.mark_consumed_done(e, self.edge_consumer[e]);
                }
            }
            if enabled {
                for &e in self.out_edges(ni) {
                    let e = e as usize;
                    if state.produced_done[e] {
                        continue;
                    }
                    state.produced[e] += state.amount[e];
                    let level = (state.produced[e] - state.consumed[e]).max(0.0);
                    state.peak[e] = state.peak[e].max(level);
                    if state.produced[e] >= self.edges[e].done_at {
                        state.mark_produced_done(e, self.edge_producer[e]);
                    }
                }
            }
            state.fired[ni] += 1;
            true
        }

        /// The out-edge that made a stalled continuous source
        /// overflow, if identifiable (cold path: only called to
        /// format the error).
        pub(super) fn overflow_edge(&self, ni: usize, state: &RunState) -> Option<usize> {
            self.out_edges(ni).iter().map(|&e| e as usize).find(|&e| {
                let ed = &self.edges[e];
                let level = (state.produced[e] - state.consumed[e]).max(0.0);
                state.produced[e] < ed.done_at
                    && ed.capacity - level
                        < ed.producer_rate.min(ed.total - state.produced[e]) - ed.tolerance
            })
        }

        /// Verdict-only steady-state early pass: returns `true` when
        /// the run is provably stable and will finish without a stall,
        /// so stepping can stop with a `Done` verdict immediately.
        ///
        /// Sampled once per idle event: the first cycle in which only
        /// sources fire after one in which a stage fired, so one event
        /// per readout period in a stall-shaped pipeline, however the
        /// idle cycles that follow are split between leaps and steps.
        /// With constant rates, fractional readout phases make buffer
        /// levels *quasi*-periodic — they wander in a bounded band
        /// rather than recur exactly — so the criterion is band
        /// stability over a long baseline instead of state recurrence.
        /// After [`STEADY_WINDOWS`] consecutive idle events with
        ///
        /// * no done-mark movement (no total/`done_at` clamp began),
        /// * every open stage past its pipeline-fill point,
        /// * both accumulators of every open edge strictly
        ///   progressing,
        /// * no open edge narrower than one producer plus one consumer
        ///   firing (such an edge has a band of levels at which its
        ///   producer is blocked on space while its consumer starves;
        ///   quasi-periodic phases eventually land the level in it, a
        ///   deadlock no trend foretells), and
        /// * each edge's projected level drift over the *whole*
        ///   remaining frame — its per-window trend times the windows
        ///   left until the earliest total clamp — at most a quarter
        ///   of the headroom above the highest level seen so far,
        ///
        /// the regime is a stable steady state: constant-rate token
        /// flow past pipeline fill is either bounded or linearly
        /// trending, the trend is measured (noise from the phase band
        /// is divided down by the long baseline), and the only
        /// remaining phases — totals clamping, then the drain —
        /// strictly reduce load. Hence no overflow or deadlock can
        /// follow and the verdict is `Done`. Any wobble (a clamp, a
        /// failed drift projection) re-anchors and keeps exact
        /// stepping, so a verdict this pass cannot prove is simply
        /// decided by the stepper as before.
        fn steady_pass(&self, state: &mut RunState, cycle: u64, max_cycles: u64) -> bool {
            if !state.anchor_valid || state.anchor_open != state.open_edges {
                state.anchor_produced.copy_from_slice(&state.produced);
                state.anchor_consumed.copy_from_slice(&state.consumed);
                state.anchor_open = state.open_edges;
                state.anchor_cycle = cycle;
                state.anchor_events = 0;
                state.anchor_valid = true;
                return false;
            }
            state.anchor_events += 1;
            if state.anchor_events < STEADY_WINDOWS {
                return false;
            }
            let verdict = self.steady_verdict(state, cycle, max_cycles);
            if !verdict {
                // Re-anchor: the regime may have shifted (or still be
                // settling); measure a fresh baseline before retrying.
                state.anchor_valid = false;
            }
            verdict
        }

        /// The evaluation half of [`Self::steady_pass`], run once the
        /// anchor baseline is [`STEADY_WINDOWS`] idle events old.
        fn steady_verdict(&self, state: &RunState, cycle: u64, max_cycles: u64) -> bool {
            let (n, m) = (self.kinds.len(), self.edges.len());
            for ni in 0..n {
                if state.node_open[ni] > 0 && !self.production_enabled(ni, state) {
                    return false;
                }
            }
            let window = f64::from(STEADY_WINDOWS);
            // Pass 1: windows left until the last total clamp, the
            // progress requirement (a stalled accumulator would mean
            // the frame never completes on its own), and the width
            // requirement.
            let mut windows_left: f64 = 0.0;
            for e in 0..m {
                let ed = &self.edges[e];
                let dp = state.produced[e] - state.anchor_produced[e];
                let dc = state.consumed[e] - state.anchor_consumed[e];
                let open = !state.produced_done[e] && !state.consumed_done[e];
                if open && ed.producer_rate + ed.consumer_rate > ed.capacity + 2.0 * ed.tolerance {
                    return false;
                }
                if !state.produced_done[e] {
                    if dp <= 0.0 {
                        return false;
                    }
                    windows_left = windows_left.max((ed.total - state.produced[e]) / (dp / window));
                }
                if !state.consumed_done[e] {
                    if dc <= 0.0 {
                        return false;
                    }
                    windows_left = windows_left.max((ed.total - state.consumed[e]) / (dc / window));
                }
            }
            // The projected remainder must comfortably fit the cycle
            // budget, or a budget-limited exact run could instead end
            // in `CycleLimit` — keep stepping and let it decide.
            let span = (cycle - state.anchor_cycle) as f64 / window;
            if cycle as f64 + 1.5 * windows_left * span > max_cycles as f64 {
                return false;
            }
            // Pass 2: project each edge's level trend over the whole
            // remaining frame against the headroom above its observed
            // peak.
            for e in 0..m {
                let ed = &self.edges[e];
                let drift = (state.produced[e] - state.anchor_produced[e])
                    - (state.consumed[e] - state.anchor_consumed[e]);
                if drift > 0.0
                    && (drift / window) * windows_left > 0.25 * (ed.capacity - state.peak[e])
                {
                    return false;
                }
            }
            true
        }

        /// The string-free steady-state loop: steps until a verdict,
        /// leaping over every run of cycles whose firing set provably
        /// repeats.
        /// When `verdict_only` is set the run may additionally end
        /// early with `Done` once steady-state stability is proven
        /// (see [`Self::steady_pass`]); counters and accumulators are
        /// then frame-incomplete, so that mode must never feed a
        /// report — only the verdict may be used. `LEAP` is always
        /// `true` outside tests, which turn it off to step every cycle
        /// as the oracle the leaps must match bit for bit.
        pub(super) fn step_to_verdict<const LEAP: bool>(
            &self,
            state: &mut RunState,
            max_cycles: u64,
            verdict_only: bool,
        ) -> Verdict {
            let n = self.kinds.len();
            // Leap bookkeeping is a 64-bit firing mask; wider graphs
            // simply never leap (they still step correctly).
            let leapable = n <= 64;
            let mut prev_mask: u64 = 0;
            // The last repeated firing set whose leap attempt came up
            // empty: short periodic runs (a drain of a few cycles every
            // readout period) would otherwise pay a doomed bound
            // computation each period. Cleared every few thousand
            // stepped cycles so a set whose spans have meanwhile grown
            // gets another look.
            let mut failed_mask: u64 = 0;
            let mut amnesty: u32 = 0;
            // Whether a stage fired in the previous cycle: the run
            // opens like a readout period does.
            let mut stage_fired_before = true;
            let mut cycle: u64 = 0;
            loop {
                if state.open_edges == 0 {
                    return Verdict::Done { cycles: cycle };
                }
                if cycle >= max_cycles {
                    return Verdict::CycleLimit;
                }
                let mut any_fired = false;
                let mut stage_fired = false;
                let mut mask: u64 = 0;
                for ni in 0..n {
                    if state.node_open[ni] == 0 {
                        continue;
                    }
                    if self.try_fire(ni, state) {
                        any_fired = true;
                        mask |= 1u64 << (ni & 63);
                        stage_fired |= matches!(self.kinds[ni], HotKind::Stage { .. });
                    } else {
                        state.stalled[ni] += 1;
                        if matches!(self.kinds[ni], HotKind::Continuous) {
                            return Verdict::Overflow {
                                node: ni as u32,
                                cycle,
                            };
                        }
                    }
                }
                if !any_fired {
                    return Verdict::Deadlock { cycle };
                }
                cycle += 1;
                amnesty += 1;
                if amnesty >= 4096 {
                    failed_mask = 0;
                    amnesty = 0;
                }
                // Idle events — the first source-only cycle after a
                // stage fired — mark readout-period boundaries, the
                // natural sampling points for the verdict-only
                // steady-state early pass.
                if verdict_only
                    && !stage_fired
                    && stage_fired_before
                    && self.steady_pass(state, cycle, max_cycles)
                {
                    return Verdict::Done { cycles: cycle };
                }
                // Leap when only sources fired (every consumer is
                // waiting for tokens, so more such cycles nearly always
                // follow) or when the same node set fired two cycles
                // running: if the pattern provably persists, replay it
                // wholesale (exact op-for-op, see `leap`).
                if LEAP && leapable && (!stage_fired || (mask == prev_mask && mask != failed_mask))
                {
                    let shortest = if stage_fired { LEAP_MIN } else { 1 };
                    let k = self.leap_cycles(mask, state).min(max_cycles - cycle);
                    let applied = if k >= shortest {
                        self.leap(mask, k, state)
                    } else {
                        0
                    };
                    cycle += applied;
                    if applied == 0 && stage_fired {
                        failed_mask = mask;
                    }
                }
                prev_mask = mask;
                stage_fired_before = stage_fired;
            }
        }

        /// How many upcoming cycles are *guaranteed* to repeat the
        /// firing set `mask` exactly — every firing amount staying the
        /// pure per-cycle rate (no total/`done_at` clamping, no
        /// capacity squeeze) and every stalled node staying blocked.
        ///
        /// All bounds are conservative: token spans are divided by the
        /// per-cycle drift rate and shrunk by [`leap_slack`], which
        /// over-covers the worst-case float drift [`LEAP_MAX`] cycles
        /// of accumulation can introduce. Underestimating merely hands
        /// the boundary cycles back to the exact stepping loop.
        fn leap_cycles(&self, mask: u64, state: &RunState) -> u64 {
            let n = self.kinds.len();
            let mut k = LEAP_MAX as f64;
            for ni in 0..n {
                let firing = mask >> (ni & 63) & 1 == 1;
                if state.node_open[ni] == 0 {
                    // A node of the set that has finished never fires
                    // again, so the set cannot repeat.
                    if firing {
                        return 0;
                    }
                    continue;
                }
                if firing {
                    k = k.min(self.firing_persists(ni, mask, state));
                } else {
                    k = k.min(self.stall_persists(ni, mask, state));
                }
                if k < 1.0 {
                    return 0;
                }
            }
            k as u64
        }

        /// Cycles for which firing node `ni` provably keeps firing with
        /// pure-rate amounts (helper of [`Self::leap_cycles`]).
        fn firing_persists(&self, ni: usize, mask: u64, state: &RunState) -> f64 {
            let mut k = LEAP_MAX as f64;
            let enabled = self.production_enabled(ni, state);
            if let HotKind::Stage { depth } = self.kinds[ni] {
                // Production coming online mid-leap would change the op
                // pattern — but only if there is anything left to push.
                let pushes = self
                    .out_edges(ni)
                    .iter()
                    .any(|&e| !state.produced_done[e as usize]);
                if !enabled && pushes {
                    k = k.min((depth - 1 - state.fired[ni]) as f64);
                }
            }
            for &e in self.in_edges(ni) {
                let e = e as usize;
                if state.consumed_done[e] {
                    continue;
                }
                let ed = &self.edges[e];
                let c = ed.consumer_rate;
                // Purity: amount == rate needs rate ≤ total − consumed
                // and consumed must not cross `done_at` (marks flip).
                // The other purity leg — the level covering the full
                // rate — is verified exactly by the replay itself
                // ([`Self::leap`] stops short of a shortfall), so
                // matched-rate edges whose level sits exactly at the
                // rate still leap.
                let limit = (ed.total - c).min(ed.done_at);
                let slack = leap_slack(ed);
                k = k.min((limit - state.consumed[e] - slack) / c);
                // Declining levels additionally bound the schedule —
                // without this, a short drain run would book a doomed
                // leap and pay for its replay every time.
                let level = (state.produced[e] - state.consumed[e]).max(0.0);
                let d = self.push_rate(e, mask, state) - c;
                if d < 0.0 {
                    k = k.min((level - c - slack) / -d);
                }
            }
            if enabled {
                for &e in self.out_edges(ni) {
                    let e = e as usize;
                    if state.produced_done[e] {
                        continue;
                    }
                    let ed = &self.edges[e];
                    let p = ed.producer_rate;
                    let slack = leap_slack(ed);
                    let limit = (ed.total - p).min(ed.done_at);
                    k = k.min((limit - state.produced[e] - slack) / p);
                    // Capacity: headroom must cover the rate (minus the
                    // flow tolerance, as in `can_fire`).
                    let level = (state.produced[e] - state.consumed[e]).max(0.0);
                    let headroom = ed.capacity - level - (p - ed.tolerance);
                    let d = p - self.pull_rate(e, mask, state);
                    if d > 0.0 {
                        k = k.min((headroom - slack) / d);
                    } else if headroom < slack {
                        return 0.0;
                    }
                }
            }
            k
        }

        /// Cycles for which stalled node `ni` provably stays blocked:
        /// the max over its currently-active blockers' persistence
        /// (helper of [`Self::leap_cycles`]).
        fn stall_persists(&self, ni: usize, mask: u64, state: &RunState) -> f64 {
            let mut k: f64 = 0.0;
            for &e in self.in_edges(ni) {
                let e = e as usize;
                if state.consumed_done[e] {
                    continue;
                }
                let ed = &self.edges[e];
                let need = ed.consumer_rate.min(ed.total - state.consumed[e]);
                let level = (state.produced[e] - state.consumed[e]).max(0.0);
                // `deficit > 0` is exactly the check `try_fire` fails
                // (float subtraction keeps the comparison's sign).
                let deficit = need - ed.tolerance - level;
                if deficit > 0.0 {
                    let p_in = self.push_rate(e, mask, state);
                    if p_in == 0.0 {
                        // Nothing flows in: the level, and the stall,
                        // hold for the whole leap.
                        return LEAP_MAX as f64;
                    }
                    k = k.max((deficit - leap_slack(ed)) / p_in);
                }
            }
            if self.production_enabled(ni, state) {
                for &e in self.out_edges(ni) {
                    let e = e as usize;
                    if state.produced_done[e] {
                        continue;
                    }
                    let ed = &self.edges[e];
                    let amount = ed.producer_rate.min(ed.total - state.produced[e]);
                    let level = (state.produced[e] - state.consumed[e]).max(0.0);
                    // Exactly the check `try_fire` fails.
                    if ed.capacity - level < amount - ed.tolerance {
                        let c_out = self.pull_rate(e, mask, state);
                        if c_out == 0.0 {
                            // Nothing drains: the stall holds for the
                            // whole leap.
                            return LEAP_MAX as f64;
                        }
                        let overfull = level - (ed.capacity - amount + ed.tolerance);
                        k = k.max((overfull - leap_slack(ed)) / c_out);
                    }
                }
            }
            k
        }

        /// Per-cycle push onto edge `e` during a leap of firing set
        /// `mask`: the producer rate if its producer fires and
        /// actually produces, else zero.
        fn push_rate(&self, e: usize, mask: u64, state: &RunState) -> f64 {
            let prod = self.edge_producer[e] as usize;
            if mask >> (prod & 63) & 1 == 1
                && !state.produced_done[e]
                && self.production_enabled(prod, state)
            {
                self.edges[e].producer_rate
            } else {
                0.0
            }
        }

        /// Per-cycle pull off edge `e` during a leap of firing set
        /// `mask`.
        fn pull_rate(&self, e: usize, mask: u64, state: &RunState) -> f64 {
            let cons = self.edge_consumer[e] as usize;
            if mask >> (cons & 63) & 1 == 1 && !state.consumed_done[e] {
                self.edges[e].consumer_rate
            } else {
                0.0
            }
        }

        /// Replays up to `k` cycles of the firing set `mask` —
        /// bit-identical to stepping them — and returns how many cycles
        /// were actually applied.
        ///
        /// Per edge, `produced` and `consumed` are independent addition
        /// chains while amounts stay pure (each only ever accumulates
        /// its own rate), so each edge is replayed on its own, in cycle
        /// order, producer before consumer — the topological scan
        /// order. [`replay`] advances each chain in closed form, one
        /// piece per float binade, and takes `peak` and the level
        /// checks at piece endpoints, where the monotone level attains
        /// them (see the `replay` module).
        ///
        /// [`Self::leap_cycles`] pre-proves every purity condition
        /// except the consumer level covering the full rate (levels of
        /// matched-rate edges sit *exactly* at the rate, which no
        /// conservative upfront bound can clear). That one is checked
        /// by the replay itself: a first pass finds the earliest short
        /// cycle over all edges, and the leap then applies only the
        /// whole [`LEAP_CHUNK`]s before it, handing the rest back to the
        /// exact stepping loop.
        fn leap(&self, mask: u64, k: u64, state: &mut RunState) -> u64 {
            let m = self.edges.len();
            let mut clean = k;
            for e in 0..m {
                let (push, pull) = self.leap_rates(e, mask, state);
                if pull.is_some() {
                    if let Err(short) = replay(Self::accumulators(e, state), push, pull, clean) {
                        clean = short;
                    }
                }
            }
            let applied = if clean < k {
                clean / LEAP_CHUNK * LEAP_CHUNK
            } else {
                k
            };
            if applied > 0 {
                for e in 0..m {
                    let (push, pull) = self.leap_rates(e, mask, state);
                    if push.is_none() && pull.is_none() {
                        continue;
                    }
                    let acc = replay(Self::accumulators(e, state), push, pull, applied)
                        .expect("no edge runs short before the first short cycle");
                    state.produced[e] = acc.produced;
                    state.consumed[e] = acc.consumed;
                    state.peak[e] = acc.peak;
                }
            }
            for ni in 0..self.kinds.len() {
                if state.node_open[ni] == 0 {
                    continue;
                }
                if mask >> (ni & 63) & 1 == 1 {
                    state.fired[ni] += applied;
                } else {
                    state.stalled[ni] += applied;
                }
            }
            state.leaped += applied;
            applied
        }

        /// Edge `e`'s per-cycle push and pull during a leap of firing
        /// set `mask`; `None` where that side does not move.
        fn leap_rates(&self, e: usize, mask: u64, state: &RunState) -> (Option<f64>, Option<f64>) {
            let push = self.push_rate(e, mask, state);
            let pull = self.pull_rate(e, mask, state);
            ((push > 0.0).then_some(push), (pull > 0.0).then_some(pull))
        }

        fn accumulators(e: usize, state: &RunState) -> Accumulators {
            Accumulators {
                produced: state.produced[e],
                consumed: state.consumed[e],
                peak: state.peak[e],
            }
        }
    }

    /// Minimum profitable leap of a repeated firing set: computing the
    /// persistence bounds costs about two stepped cycles. A source-only
    /// cycle leaps any span: idle runs are short (about 11 cycles per
    /// readout period in the Ed-Gaze stall check) and would otherwise
    /// all be stepped.
    const LEAP_MIN: u64 = 16;

    /// Idle events a steady-state anchor must survive before the
    /// verdict-only early pass may conclude (see
    /// [`Arena::steady_pass`]). Long enough that quasi-periodic phase
    /// wander divides down to a negligible trend estimate; short
    /// enough that the stepped prefix stays a sliver of a full frame.
    const STEADY_WINDOWS: u32 = 256;
    /// Leap cap, sized so the drift slack stays small (see
    /// [`leap_slack`]).
    const LEAP_MAX: u64 = 1 << 24;
    /// Leap granularity at a shortfall: a leap whose replay finds a
    /// short cycle applies only the whole chunks before it, so stepping
    /// resumes at the same cycle as it did when leaps were replayed
    /// chunk by chunk.
    const LEAP_CHUNK: u64 = 1 << 10;

    /// Absolute token slack subtracted from every leap span: an upper
    /// bound on the float drift [`LEAP_MAX`] cycles of rate
    /// accumulation can introduce on this edge (each accumulator's
    /// error per add is ≤ ε times its magnitude, bounded by the
    /// edge's token volume plus its capacity), with a 4× safety
    /// factor. Spans too small to absorb the slack fall back to exact
    /// stepping.
    fn leap_slack(ed: &HotEdge) -> f64 {
        4.0 * (LEAP_MAX as f64) * f64::EPSILON * (ed.total + ed.capacity + 1.0)
    }
}

/// Builder assembling a digital pipeline graph for simulation.
///
/// # Examples
///
/// ```
/// use camj_digital::memory::MemoryStructure;
/// use camj_digital::sim::{PipelineSimBuilder, SourceMode};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // ADC feeds an edge-detection unit through a 3-row line buffer.
/// let mut b = PipelineSimBuilder::new();
/// let adc = b.add_source("ADC", SourceMode::Elastic);
/// let edge = b.add_stage("EdgeUnit", 2);
/// // The buffer's word width and ports must cover the per-cycle rates:
/// let lb = MemoryStructure::line_buffer("lb", 3, 16).with_pixels_per_word(16);
/// b.connect(
///     adc,
///     edge,
///     &lb,
///     16.0, // ADC writes one 16-pixel row per firing
///     16.0, // edge unit reads a row's worth per firing
///     16.0 * 16.0,
/// );
/// let report = b.build()?.run(100_000)?;
/// assert!(report.total_cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct PipelineSimBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl PipelineSimBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a data source (pixel readout, DMA engine, …).
    pub fn add_source(&mut self, name: impl Into<String>, mode: SourceMode) -> NodeId {
        self.nodes.push(Node {
            name: name.into(),
            kind: NodeKind::Source { mode },
            in_edges: Vec::new(),
            out_edges: Vec::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a compute stage with the given pipeline depth.
    ///
    /// # Panics
    ///
    /// Panics if `pipeline_depth` is zero.
    pub fn add_stage(&mut self, name: impl Into<String>, pipeline_depth: u32) -> NodeId {
        assert!(pipeline_depth > 0, "pipeline depth must be at least 1");
        self.nodes.push(Node {
            name: name.into(),
            kind: NodeKind::Stage { pipeline_depth },
            in_edges: Vec::new(),
            out_edges: Vec::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Connects `from` to `to` through `buffer`, transferring
    /// `total_pixels` per frame: the producer pushes `producer_rate`
    /// pixels per firing, the consumer pops `consumer_rate` per firing.
    ///
    /// # Panics
    ///
    /// Panics if rates or totals are negative/non-finite, or if the node
    /// handles do not belong to this builder.
    pub fn connect(
        &mut self,
        from: NodeId,
        to: NodeId,
        buffer: &MemoryStructure,
        producer_rate: f64,
        consumer_rate: f64,
        total_pixels: f64,
    ) {
        self.connect_with_reuse(
            from,
            to,
            buffer,
            producer_rate,
            consumer_rate,
            total_pixels,
            1.0,
        );
    }

    /// Like [`Self::connect`], but each fresh pixel consumed counts as
    /// `reads_per_pixel` physical reads in the buffer statistics —
    /// modelling stencil-window reuse out of a line buffer or weight
    /// re-reads out of a DNN buffer without inflating the flow control.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::connect`], or if
    /// `reads_per_pixel` is negative or non-finite.
    #[allow(clippy::too_many_arguments)]
    pub fn connect_with_reuse(
        &mut self,
        from: NodeId,
        to: NodeId,
        buffer: &MemoryStructure,
        producer_rate: f64,
        consumer_rate: f64,
        total_pixels: f64,
        reads_per_pixel: f64,
    ) {
        assert!(
            reads_per_pixel.is_finite() && reads_per_pixel >= 0.0,
            "reads per pixel must be non-negative and finite, got {reads_per_pixel}"
        );
        assert!(from.0 < self.nodes.len(), "unknown producer node");
        assert!(to.0 < self.nodes.len(), "unknown consumer node");
        assert!(
            producer_rate.is_finite() && producer_rate > 0.0,
            "producer rate must be positive and finite, got {producer_rate}"
        );
        assert!(
            consumer_rate.is_finite() && consumer_rate > 0.0,
            "consumer rate must be positive and finite, got {consumer_rate}"
        );
        assert!(
            total_pixels.is_finite() && total_pixels >= 0.0,
            "total pixels must be non-negative and finite, got {total_pixels}"
        );
        let idx = self.edges.len();
        self.edges.push(Edge {
            name: buffer.name().to_owned(),
            capacity: buffer.capacity_pixels() as f64,
            producer_rate,
            consumer_rate,
            total: total_pixels,
            pixels_per_word: f64::from(buffer.pixels_per_word()),
            read_ports: buffer.read_ports(),
            write_ports: buffer.write_ports(),
            reads_per_pixel,
            tolerance: flow_tolerance(total_pixels, producer_rate.min(consumer_rate)),
        });
        self.nodes[from.0].out_edges.push(idx);
        self.nodes[to.0].in_edges.push(idx);
    }

    /// Validates the graph and produces a runnable simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InsufficientPorts`] if any unit's per-cycle
    /// word demand exceeds a buffer's ports (stall scenario 3), or
    /// [`SimError::Deadlock`] (cycle 0) if the graph contains a cycle.
    pub fn build(self) -> Result<PipelineSim, SimError> {
        // Static port checks.
        for edge in &self.edges {
            let write_words = (edge.producer_rate / edge.pixels_per_word).ceil() as u64;
            if write_words > u64::from(edge.write_ports) {
                return Err(SimError::InsufficientPorts {
                    buffer: edge.name.clone(),
                    demanded_words_per_cycle: write_words,
                    ports: edge.write_ports,
                    is_read: false,
                });
            }
            let read_words = (edge.consumer_rate / edge.pixels_per_word).ceil() as u64;
            if read_words > u64::from(edge.read_ports) {
                return Err(SimError::InsufficientPorts {
                    buffer: edge.name.clone(),
                    demanded_words_per_cycle: read_words,
                    ports: edge.read_ports,
                    is_read: true,
                });
            }
        }
        // Topological order (Kahn); a residual node means a graph cycle.
        let order = topo_order(&self.nodes).ok_or_else(|| SimError::Deadlock {
            cycle: 0,
            stage: "<graph>".into(),
            reason: "the digital pipeline graph contains a cycle".into(),
        })?;
        let arena = build_arena(&self.nodes, &self.edges, &order);
        Ok(PipelineSim {
            nodes: self.nodes,
            edges: self.edges,
            arena,
        })
    }
}

fn topo_order(nodes: &[Node]) -> Option<Vec<usize>> {
    // Build per-node predecessor counts through edges.
    let mut incoming = vec![0usize; nodes.len()];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        for &e in &node.out_edges {
            for (j, other) in nodes.iter().enumerate() {
                if other.in_edges.contains(&e) {
                    incoming[j] += 1;
                    consumers[i].push(j);
                }
            }
        }
    }
    let mut ready: Vec<usize> = (0..nodes.len()).filter(|&i| incoming[i] == 0).collect();
    let mut order = Vec::with_capacity(nodes.len());
    while let Some(i) = ready.pop() {
        order.push(i);
        for &j in &consumers[i] {
            incoming[j] -= 1;
            if incoming[j] == 0 {
                ready.push(j);
            }
        }
    }
    (order.len() == nodes.len()).then_some(order)
}

/// Flattens the validated cold graph into the stepping arena, nodes
/// permuted into topological firing order.
fn build_arena(nodes: &[Node], edges: &[Edge], order: &[usize]) -> Arena {
    use arena::{HotEdge, HotKind};
    let n = nodes.len();
    let mut kinds = Vec::with_capacity(n);
    let mut in_start = Vec::with_capacity(n + 1);
    let mut in_list = Vec::new();
    let mut out_start = Vec::with_capacity(n + 1);
    let mut out_list = Vec::new();
    let mut orig = Vec::with_capacity(n);
    let mut arena_of = vec![0u32; n];
    for (ai, &oi) in order.iter().enumerate() {
        let node = &nodes[oi];
        kinds.push(match node.kind {
            NodeKind::Source {
                mode: SourceMode::Continuous,
            } => HotKind::Continuous,
            NodeKind::Source {
                mode: SourceMode::Elastic,
            } => HotKind::Elastic,
            NodeKind::Stage { pipeline_depth } => HotKind::Stage {
                depth: u64::from(pipeline_depth),
            },
        });
        in_start.push(in_list.len() as u32);
        in_list.extend(node.in_edges.iter().map(|&e| e as u32));
        out_start.push(out_list.len() as u32);
        out_list.extend(node.out_edges.iter().map(|&e| e as u32));
        orig.push(oi as u32);
        arena_of[oi] = ai as u32;
    }
    in_start.push(in_list.len() as u32);
    out_start.push(out_list.len() as u32);
    let mut edge_producer = vec![0u32; edges.len()];
    let mut edge_consumer = vec![0u32; edges.len()];
    for (ai, &oi) in order.iter().enumerate() {
        for &e in &nodes[oi].out_edges {
            edge_producer[e] = ai as u32;
        }
        for &e in &nodes[oi].in_edges {
            edge_consumer[e] = ai as u32;
        }
    }
    Arena {
        kinds,
        in_start,
        in_list,
        out_start,
        out_list,
        orig,
        arena_of,
        edges: edges
            .iter()
            .map(|e| HotEdge {
                capacity: e.capacity,
                producer_rate: e.producer_rate,
                consumer_rate: e.consumer_rate,
                total: e.total,
                tolerance: e.tolerance,
                done_at: e.total - e.tolerance,
            })
            .collect(),
        edge_producer,
        edge_consumer,
    }
}

/// A runnable cycle-level pipeline simulation.
#[derive(Debug)]
pub struct PipelineSim {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    arena: Arena,
}

impl PipelineSim {
    /// Runs the simulation for at most `max_cycles` cycles.
    ///
    /// The steady-state loop steps the string-free arena; names are
    /// only touched here — after the verdict — to format errors and
    /// assemble the report.
    ///
    /// # Errors
    ///
    /// * [`SimError::SourceOverflow`] — a continuous source hit a full
    ///   buffer (the pipeline cannot sustain the readout rate),
    /// * [`SimError::Deadlock`] — no unit can make progress,
    /// * [`SimError::CycleLimitExceeded`] — the frame did not finish
    ///   within `max_cycles`.
    pub fn run(&self, max_cycles: u64) -> Result<SimReport, SimError> {
        // One coarse span per run — never per token/cycle, so the
        // stepping loop below stays allocation- and probe-free.
        let _span = obs_core::span("sim.run");
        self.run_steps::<true>(max_cycles)
    }

    /// [`Self::run`] without its span; tests call it with `LEAP` off
    /// for a cycle-by-cycle oracle run.
    fn run_steps<const LEAP: bool>(&self, max_cycles: u64) -> Result<SimReport, SimError> {
        let mut state = RunState::new(&self.arena);
        // The hot region: step_to_verdict neither allocates nor
        // formats — names come back into play only below.
        let verdict = self
            .arena
            .step_to_verdict::<LEAP>(&mut state, max_cycles, false);
        obs_core::counter("sim.leaped", 0, state.leaped);
        let cycles = self.outcome(verdict, &state, max_cycles)?;
        obs_core::counter("sim.cycles", 0, cycles);
        Ok(self.assemble_report(cycles, &state))
    }

    /// Verdict-only run for the stall check: it steps and leaps
    /// exactly as [`Self::run`] does, plus a steady-state early pass
    /// that stops once the token flow is provably stable for the rest
    /// of the frame — orders of magnitude faster on long frames. An
    /// early pass leaves counters frame-incomplete, so this entry
    /// point deliberately returns no report. The early pass can only
    /// end a run with `Done`, so a *failing* verdict is reached on the
    /// very cycles [`Self::run`] steps, and its diagnosis (cycle
    /// number, stage, buffer levels) is byte-identical to it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::run`].
    pub fn run_check(&self, max_cycles: u64) -> Result<(), SimError> {
        let _span = obs_core::span("sim.check");
        let mut state = RunState::new(&self.arena);
        let verdict = self
            .arena
            .step_to_verdict::<true>(&mut state, max_cycles, true);
        self.outcome(verdict, &state, max_cycles).map(drop)
    }

    /// The frame's cycle count for a `Done` verdict, else the error the
    /// failing verdict reports (cold path: names come back into play
    /// only here).
    fn outcome(
        &self,
        verdict: Verdict,
        state: &RunState,
        max_cycles: u64,
    ) -> Result<u64, SimError> {
        match verdict {
            Verdict::Done { cycles } => Ok(cycles),
            Verdict::CycleLimit => Err(SimError::CycleLimitExceeded { limit: max_cycles }),
            Verdict::Overflow { node, cycle } => Err(self.overflow_error(node, cycle, state)),
            Verdict::Deadlock { cycle } => {
                let (stage, reason) = self.diagnose_block(state);
                Err(SimError::Deadlock {
                    cycle,
                    stage,
                    reason,
                })
            }
        }
    }

    fn assemble_report(&self, total_cycles: u64, state: &RunState) -> SimReport {
        SimReport {
            total_cycles,
            stages: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    let ai = self.arena.arena_of[i] as usize;
                    StageStats {
                        name: n.name.clone(),
                        active_cycles: state.fired[ai],
                        stalled_cycles: state.stalled[ai],
                    }
                })
                .collect(),
            buffers: self
                .edges
                .iter()
                .enumerate()
                .map(|(e, ed)| BufferStats {
                    name: ed.name.clone(),
                    pixels_written: state.produced[e],
                    pixels_read: state.consumed[e] * ed.reads_per_pixel,
                    peak_occupancy: state.peak[e],
                })
                .collect(),
        }
    }

    /// Formats the overflow error for a stalled continuous source
    /// (cold path).
    fn overflow_error(&self, node: u32, cycle: u64, state: &RunState) -> SimError {
        let source = self.nodes[self.arena.orig[node as usize] as usize]
            .name
            .clone();
        let buffer = self
            .arena
            .overflow_edge(node as usize, state)
            .map(|e| self.edges[e].name.clone())
            .unwrap_or_else(|| "<unknown>".into());
        SimError::SourceOverflow {
            cycle,
            source,
            buffer,
        }
    }

    fn node_done(&self, node: &Node, state: &RunState) -> bool {
        let out_done = node
            .out_edges
            .iter()
            .all(|&e| state.produced[e] >= self.edges[e].total - self.edges[e].tol());
        let in_done = node
            .in_edges
            .iter()
            .all(|&e| state.consumed[e] >= self.edges[e].total - self.edges[e].tol());
        out_done && in_done
    }

    /// Names the first blocked stage and why (cold path: only called
    /// once a deadlock verdict is already decided).
    fn diagnose_block(&self, state: &RunState) -> (String, String) {
        for node in &self.nodes {
            if self.node_done(node, state) {
                continue;
            }
            for &e in &node.in_edges {
                let ed = &self.edges[e];
                if state.consumed[e] < ed.total - ed.tol() {
                    let need = ed.consumer_rate.min(ed.total - state.consumed[e]);
                    let level = (state.produced[e] - state.consumed[e]).max(0.0);
                    if level < need - ed.tol() {
                        return (
                            node.name.clone(),
                            format!(
                                "is starved on buffer '{}' (needs {:.1} pixels, has {:.1})",
                                ed.name, need, level
                            ),
                        );
                    }
                }
            }
            for &e in &node.out_edges {
                let ed = &self.edges[e];
                if state.produced[e] < ed.total - ed.tol() {
                    let amount = ed.producer_rate.min(ed.total - state.produced[e]);
                    let level = (state.produced[e] - state.consumed[e]).max(0.0);
                    if ed.capacity - level < amount - ed.tol() {
                        return (
                            node.name.clone(),
                            format!("is blocked on full buffer '{}'", ed.name),
                        );
                    }
                }
            }
        }
        ("<unknown>".into(), "no progress".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(name: &str, capacity: u64) -> MemoryStructure {
        // Generous ports: these tests exercise dataflow, not port limits.
        MemoryStructure::fifo(name, capacity).with_ports(8, 8)
    }

    #[test]
    fn linear_pipeline_completes() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Elastic);
        let stage = b.add_stage("stage", 1);
        b.connect(src, stage, &buf("f", 16), 4.0, 4.0, 256.0);
        let report = b.build().unwrap().run(10_000).unwrap();
        // 256 pixels at 4/cycle = 64 producer firings; consumer trails by 1.
        assert!(report.total_cycles >= 64 && report.total_cycles <= 66);
        assert_eq!(report.stage("src").unwrap().active_cycles, 64);
        let f = report.buffer("f").unwrap();
        assert!((f.pixels_written - 256.0).abs() < 1e-6);
        assert!((f.pixels_read - 256.0).abs() < 1e-6);
    }

    #[test]
    fn rate_mismatch_throttles_pipeline() {
        // Consumer half as fast as producer with a small buffer: the
        // elastic source adapts; total time set by the consumer.
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Elastic);
        let slow = b.add_stage("slow", 1);
        b.connect(src, slow, &buf("f", 8), 4.0, 2.0, 256.0);
        let report = b.build().unwrap().run(10_000).unwrap();
        // Consumer needs 128 firings.
        assert!(report.total_cycles >= 128);
        assert!(report.stage("src").unwrap().stalled_cycles > 0);
    }

    #[test]
    fn continuous_source_overflows_slow_pipeline() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("readout", SourceMode::Continuous);
        let slow = b.add_stage("slow", 1);
        b.connect(src, slow, &buf("f", 8), 4.0, 2.0, 256.0);
        let err = b.build().unwrap().run(10_000).unwrap_err();
        assert!(matches!(err, SimError::SourceOverflow { .. }), "{err}");
    }

    #[test]
    fn continuous_source_ok_when_pipeline_keeps_pace() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("readout", SourceMode::Continuous);
        let fast = b.add_stage("fast", 1);
        b.connect(src, fast, &buf("f", 8), 2.0, 2.0, 256.0);
        let report = b.build().unwrap().run(10_000).unwrap();
        assert_eq!(report.stage("readout").unwrap().stalled_cycles, 0);
    }

    #[test]
    fn pipeline_depth_defers_production() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Elastic);
        let deep = b.add_stage("deep", 8);
        let sink = b.add_stage("sink", 1);
        b.connect(src, deep, &buf("in", 64), 1.0, 1.0, 32.0);
        b.connect(deep, sink, &buf("out", 64), 1.0, 1.0, 32.0);
        let shallow_cycles = {
            let mut b2 = PipelineSimBuilder::new();
            let s = b2.add_source("src", SourceMode::Elastic);
            let st = b2.add_stage("shallow", 1);
            let sk = b2.add_stage("sink", 1);
            b2.connect(s, st, &buf("in", 64), 1.0, 1.0, 32.0);
            b2.connect(st, sk, &buf("out", 64), 1.0, 1.0, 32.0);
            b2.build().unwrap().run(10_000).unwrap().total_cycles
        };
        let deep_cycles = b.build().unwrap().run(10_000).unwrap().total_cycles;
        assert!(deep_cycles > shallow_cycles);
    }

    #[test]
    fn insufficient_read_ports_detected_statically() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Elastic);
        let stage = b.add_stage("stage", 1);
        // Demands 4 pixels/cycle from a 1-pixel-per-word, 1-port buffer.
        let narrow = MemoryStructure::fifo("f", 16);
        b.connect(src, stage, &narrow, 1.0, 4.0, 64.0);
        let err = b.build().unwrap_err();
        assert!(
            matches!(err, SimError::InsufficientPorts { is_read: true, .. }),
            "{err}"
        );
    }

    #[test]
    fn word_packing_relaxes_port_demand() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Elastic);
        let stage = b.add_stage("stage", 1);
        let wide = MemoryStructure::fifo("f", 16).with_pixels_per_word(4);
        b.connect(src, stage, &wide, 4.0, 4.0, 64.0);
        assert!(b.build().is_ok());
    }

    #[test]
    fn graph_cycle_rejected() {
        let mut b = PipelineSimBuilder::new();
        let a = b.add_stage("a", 1);
        let c = b.add_stage("c", 1);
        b.connect(a, c, &buf("ab", 8), 1.0, 1.0, 8.0);
        b.connect(c, a, &buf("ba", 8), 1.0, 1.0, 8.0);
        let err = b.build().unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn fan_out_feeds_two_consumers() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Elastic);
        let left = b.add_stage("left", 1);
        let right = b.add_stage("right", 1);
        b.connect(src, left, &buf("l", 16), 2.0, 2.0, 64.0);
        b.connect(src, right, &buf("r", 16), 2.0, 2.0, 64.0);
        let report = b.build().unwrap().run(10_000).unwrap();
        assert!((report.buffer("l").unwrap().pixels_read - 64.0).abs() < 1e-6);
        assert!((report.buffer("r").unwrap().pixels_read - 64.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_limit_reported() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Elastic);
        let stage = b.add_stage("stage", 1);
        b.connect(src, stage, &buf("f", 16), 1.0, 1.0, 1_000_000.0);
        let err = b.build().unwrap().run(10).unwrap_err();
        assert!(matches!(err, SimError::CycleLimitExceeded { limit: 10 }));
    }

    #[test]
    fn fractional_rates_fire_every_other_cycle() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Elastic);
        let stage = b.add_stage("stage", 1);
        b.connect(src, stage, &buf("f", 16), 0.5, 0.5, 32.0);
        let report = b.build().unwrap().run(10_000).unwrap();
        // 32 pixels at 0.5/cycle = 64 firings.
        assert!(report.total_cycles >= 64);
    }

    #[test]
    fn read_reuse_multiplies_statistics_only() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Elastic);
        let stage = b.add_stage("stencil", 1);
        // A 3×3 stencil re-reads each fresh pixel 9 times on average.
        b.connect_with_reuse(src, stage, &buf("lb", 16), 1.0, 1.0, 64.0, 9.0);
        let report = b.build().unwrap().run(10_000).unwrap();
        let lb = report.buffer("lb").unwrap();
        assert!((lb.pixels_written - 64.0).abs() < 1e-6);
        assert!((lb.pixels_read - 576.0).abs() < 1e-6);
    }

    #[test]
    fn tolerance_scales_with_volume_and_respects_rates() {
        // Mid-size edge: proportional to the token volume.
        assert!((flow_tolerance(256.0, 4.0) - 256.0 * REL_EPS).abs() < 1e-18);
        // Large frame: grows with the volume but stays far below a pixel.
        let big = flow_tolerance(2.0e7, 4096.0);
        assert!(big > 1e-4 && big <= MAX_EPS, "big-frame tol {big}");
        // Sub-microtoken rates: the tolerance must sit well below the
        // per-cycle amounts or flow control stops waiting for tokens.
        let tiny = flow_tolerance(3e-6, 1e-6);
        assert!(tiny < 1e-6 / 2.0, "tiny-rate tol {tiny}");
        assert!(tiny >= MIN_EPS);
    }

    /// Regression: with the old absolute 1e-6 tolerance, sub-microtoken
    /// rates were invisible — `need - EPS` went negative, consumers
    /// fired without waiting for tokens, and `total - EPS` declared the
    /// edge done a whole firing early, silently losing a third of the
    /// traffic here.
    #[test]
    fn sub_microtoken_rates_flow_exactly() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Elastic);
        let stage = b.add_stage("stage", 1);
        b.connect(src, stage, &buf("f", 16), 1e-6, 1e-6, 3e-6);
        let report = b.build().unwrap().run(10_000).unwrap();
        // Three full producer firings (the old absolute tolerance
        // declared the edge done after two).
        assert!(report.total_cycles >= 3, "cycles {}", report.total_cycles);
        assert_eq!(report.stage("src").unwrap().active_cycles, 3);
        let f = report.buffer("f").unwrap();
        assert!(
            (f.pixels_written - 3e-6).abs() < 1e-12,
            "{}",
            f.pixels_written
        );
        assert!((f.pixels_read - 3e-6).abs() < 1e-12, "{}", f.pixels_read);
    }

    /// Regression companion at the other end of the scale: O(10⁷)
    /// tokens moved at a fractional rate must complete and conserve
    /// pixels within the relative tolerance (absolute comparisons sit
    /// in accumulated-drift territory at this magnitude).
    #[test]
    fn ten_million_tokens_conserved_at_fractional_rates() {
        let rate = 3333.37; // fractional: every firing rounds the sums
        let firings = 4000.0;
        let total = rate * firings; // ≈ 1.33e7 pixels
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Continuous);
        let stage = b.add_stage("stage", 1);
        let wide = MemoryStructure::fifo("f", 16_384)
            .with_pixels_per_word(512)
            .with_ports(8, 8);
        b.connect(src, stage, &wide, rate, rate, total);
        let report = b.build().unwrap().run(100_000).unwrap();
        assert!(report.total_cycles >= firings as u64);
        let f = report.buffer("f").unwrap();
        let slack = total * REL_EPS;
        assert!(
            (f.pixels_written - total).abs() <= slack,
            "{}",
            f.pixels_written
        );
        assert!((f.pixels_read - total).abs() <= slack, "{}", f.pixels_read);
        assert!(f.peak_occupancy <= 16_384.0 + slack, "{}", f.peak_occupancy);
    }

    #[test]
    fn peak_occupancy_tracked() {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("src", SourceMode::Elastic);
        let stage = b.add_stage("stage", 1);
        b.connect(src, stage, &buf("f", 16), 4.0, 2.0, 64.0);
        let report = b.build().unwrap().run(10_000).unwrap();
        let peak = report.buffer("f").unwrap().peak_occupancy;
        assert!(peak > 2.0 && peak <= 16.0, "peak {peak}");
    }

    /// Counting allocator for the zero-allocation hot-loop test: every
    /// heap allocation on the calling thread bumps a thread-local
    /// counter (thread-local so the parallel test harness can't
    /// pollute the count).
    mod counting_alloc {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCS: Cell<u64> = const { Cell::new(0) };
        }

        pub struct Counting;

        // SAFETY: delegates verbatim to `System`; the counter is a
        // const-initialised thread-local Cell, so bumping it performs
        // no allocation (no recursion) and `try_with` tolerates
        // teardown-time calls.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
                unsafe { System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        #[global_allocator]
        static COUNTING: Counting = Counting;

        /// Allocations performed by this thread so far.
        pub fn allocations() -> u64 {
            ALLOCS.with(Cell::get)
        }
    }

    /// Cycles a leaping run of `sim` replays in closed form.
    fn leaped_cycles(sim: &PipelineSim, max_cycles: u64) -> u64 {
        let mut state = RunState::new(&sim.arena);
        sim.arena
            .step_to_verdict::<true>(&mut state, max_cycles, false);
        state.leaped
    }

    /// The steady-state stepping loop must not allocate: a clean run's
    /// allocation count is independent of how many cycles it steps.
    /// Two otherwise-identical pipelines whose token totals differ 10×
    /// (≈1060 vs ≈10600 cycles) must allocate exactly the same number of
    /// times — state setup, scratch, and report assembly are identical,
    /// so any difference could only come from per-cycle allocations
    /// (e.g. the `String` clones that used to sit in the stepping
    /// path). The sink pulls a non-dyadic rate, like the Ed-Gaze DNN,
    /// and both runs replay most of their cycles in closed-form leaps.
    #[test]
    fn steady_state_run_performs_zero_per_cycle_allocations() {
        fn run_allocs(total: f64) -> u64 {
            let rate = 0.241_777_670_321_035_42;
            let mut b = PipelineSimBuilder::new();
            let src = b.add_source("src", SourceMode::Elastic);
            let mid = b.add_stage("mid", 2);
            let sink = b.add_stage("sink", 1);
            b.connect(src, mid, &buf("in", 16), 1.0, 1.0, total);
            b.connect(mid, sink, &buf("out", 4096), 1.0, rate, total);
            let sim = b.build().unwrap();
            let before = counting_alloc::allocations();
            let report = sim.run(10_000_000).unwrap();
            let after = counting_alloc::allocations();
            assert!(report.total_cycles as f64 >= total);
            let leaped = leaped_cycles(&sim, 10_000_000);
            assert!(
                2 * leaped > report.total_cycles,
                "{leaped} of {} cycles leaped",
                report.total_cycles
            );
            after - before
        }
        let short = run_allocs(256.0);
        let long = run_allocs(2560.0);
        assert_eq!(
            short, long,
            "allocation count must not grow with cycle count"
        );
    }

    /// A small deterministic generator for the random graphs below
    /// (splitmix64).
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Integer, dyadic, non-dyadic, or tie-forcing: its lowest set
        /// bit is half the ulp of a binade between 2^11 and 2^18, so
        /// every step of an accumulator there is a ties-to-even
        /// rounding.
        fn rate(&mut self) -> f64 {
            match self.below(4) {
                0 => (self.below(8) + 1) as f64,
                1 => (self.below(64) + 1) as f64 / 16.0,
                2 => 0.05 + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0,
                _ => {
                    let odd = (self.below(1 << 40) | 1) + (1 << 40);
                    odd as f64 * 2f64.powi(self.below(7) as i32 - 42)
                }
            }
        }
    }

    /// A random 2–5-node DAG: a source (elastic or continuous) feeding
    /// a chain of stages, with an occasional extra edge that skips
    /// ahead (fan-out and fan-in). Edge rates are drawn by
    /// [`Draw::rate`] and matched on a third of the edges; totals move
    /// up to 2^15 firings of the slower side, so they span many
    /// binades; capacities range from barely above the larger rate —
    /// tight enough to stall, overflow, or run short mid-leap — to the
    /// whole total.
    fn random_sim(seed: u64) -> PipelineSim {
        let mut draw = Draw(seed);
        let mut b = PipelineSimBuilder::new();
        let mode = if draw.below(3) == 0 {
            SourceMode::Continuous
        } else {
            SourceMode::Elastic
        };
        let mut nodes = vec![b.add_source("src", mode)];
        let n = 2 + draw.below(4) as usize;
        for j in 1..n {
            nodes.push(b.add_stage(format!("s{j}"), 1 + draw.below(4) as u32));
        }
        for j in 1..n {
            let mut producers = vec![j - 1];
            if j >= 2 && draw.below(3) == 0 {
                producers.push(draw.below(j as u64 - 1) as usize);
            }
            for i in producers {
                let p = draw.rate();
                let c = if draw.below(3) == 0 { p } else { draw.rate() };
                let total = p.min(c) * (1 + draw.below(1 << 15)) as f64;
                let capacity = match draw.below(3) {
                    0 => p.max(c).ceil() as u64 + draw.below(4),
                    1 => (4.0 * p.max(c)).ceil() as u64 + draw.below(64),
                    _ => total.ceil() as u64 + 1,
                };
                let fifo = MemoryStructure::fifo(format!("e{i}{j}"), capacity)
                    .with_pixels_per_word(64)
                    .with_ports(8, 8);
                b.connect(nodes[i], nodes[j], &fifo, p, c, total);
            }
        }
        b.build().unwrap()
    }

    /// A random readout-paced graph: a continuous source at rate
    /// 0.02–0.52 feeding a chain of 1–3 stages, with 2,000–42,000
    /// tokens per frame and FIFOs either tight (barely above the larger
    /// rate) or loose. Most cycles fire the source alone, as in a stall
    /// check; a stage drawing less than the flow it is fed overflows
    /// the readout. Stage rates are drawn by [`Draw::rate`], and each
    /// out-edge carries the stage's firings times its producer rate.
    fn readout_paced_sim(seed: u64) -> PipelineSim {
        let mut draw = Draw(seed);
        let mut b = PipelineSimBuilder::new();
        let mut from = b.add_source("readout", SourceMode::Continuous);
        let mut p = 0.02 + 0.5 * (draw.next() >> 11) as f64 / (1u64 << 53) as f64;
        let mut total = (2_000 + draw.below(40_001)) as f64;
        for j in 1..=1 + draw.below(3) {
            let stage = b.add_stage(format!("s{j}"), 1 + draw.below(16) as u32);
            let c = draw.rate();
            let capacity = if draw.below(2) == 0 {
                p.max(c).ceil() as u64 + draw.below(4)
            } else {
                (16.0 * p.max(c)).ceil() as u64 + draw.below(1024)
            };
            let fifo = MemoryStructure::fifo(format!("e{j}"), capacity)
                .with_pixels_per_word(64)
                .with_ports(8, 8);
            b.connect(from, stage, &fifo, p, c, total);
            let next = draw.rate();
            total = total / c * next;
            (from, p) = (stage, next);
        }
        b.build().unwrap()
    }

    /// The graph each generator draws for `seed`, by generator name.
    fn random_sims(seed: u64) -> [(&'static str, PipelineSim); 2] {
        [
            ("random", random_sim(seed)),
            ("readout-paced", readout_paced_sim(seed)),
        ]
    }

    /// A run's outcome with every float as its bit pattern.
    fn outcome_bits(run: Result<SimReport, SimError>) -> Result<String, SimError> {
        run.map(|r| {
            let mut out = format!("cycles {}\n", r.total_cycles);
            for s in &r.stages {
                out += &format!("{} {} {}\n", s.name, s.active_cycles, s.stalled_cycles);
            }
            for b in &r.buffers {
                out += &format!(
                    "{} {:x} {:x} {:x}\n",
                    b.name,
                    b.pixels_written.to_bits(),
                    b.pixels_read.to_bits(),
                    b.peak_occupancy.to_bits()
                );
            }
            out
        })
    }

    /// Leaping is invisible: for each graph of [`random_sims`]`(seed)`,
    /// a run that leaps and one that steps every cycle give
    /// bit-identical reports, or identical errors (cycle and text).
    fn assert_leaps_are_exact(seed: u64) {
        for (generator, sim) in random_sims(seed) {
            let leaping = outcome_bits(sim.run_steps::<true>(1 << 24));
            let stepping = outcome_bits(sim.run_steps::<false>(1 << 24));
            assert_eq!(leaping, stepping, "{generator} seed {seed}");
        }
    }

    /// The verdict-only stall check (with its steady-state early pass)
    /// reaches the verdict of a full run on each graph of
    /// [`random_sims`]`(seed)`, with the same error text when it fails.
    fn assert_stall_check_matches_run(seed: u64) {
        for (generator, sim) in random_sims(seed) {
            let check = sim.run_check(1 << 24).map_err(|e| e.to_string());
            let run = sim.run(1 << 24).map(drop).map_err(|e| e.to_string());
            assert_eq!(check, run, "{generator} seed {seed}");
        }
    }

    proptest::proptest! {
        #[test]
        fn leaping_runs_match_the_cycle_by_cycle_oracle(seed in 0u64..u64::MAX) {
            assert_leaps_are_exact(seed);
        }

        #[test]
        fn stall_checks_match_full_runs(seed in 0u64..u64::MAX) {
            assert_stall_check_matches_run(seed);
        }
    }

    /// Regression: the readout-paced graph's last edge holds 32 pixels
    /// and moves 0.0625 in, 31.99 out per firing, so a level between
    /// 31.94 and 31.99 blocks both of its stages. The exact run reaches
    /// that band and overflows at cycle 10502, where the drift
    /// projection alone sees a falling trend and would claim `Done`.
    #[test]
    fn no_steady_claim_across_a_deadlock_band() {
        assert_stall_check_matches_run(6_267_022_066_280_262_987);
    }

    /// The last firing stage finishes in the second cycle of a repeated
    /// firing set, so only the source fires next while two stages stay
    /// blocked: leaping those cycles must book the same stalls as
    /// stepping them.
    #[test]
    fn no_leap_once_only_sources_fire() {
        assert_leaps_are_exact(15_863_747_107_958_433_976);
    }

    /// Regression: the elastic source fires its last tokens alone at
    /// cycle 18264 while all three stages are blocked, and stepping
    /// ends in `Deadlock { cycle: 18264, .. }`. Without the
    /// finished-node rule, the leap taken at that source-only cycle
    /// replays 2^24 cycles of nothing and reports a cycle limit.
    #[test]
    fn no_leap_once_a_firing_node_finishes() {
        assert_leaps_are_exact(730_361_632_404_958_571);
    }

    /// The random graphs above do exercise the leap path.
    #[test]
    fn random_graphs_leap() {
        let leaping = (0..64)
            .filter(|&seed| leaped_cycles(&random_sim(seed), 1 << 24) > 0)
            .count();
        assert!(leaping >= 16, "{leaping} of 64 graphs leaped");
    }

    /// A stall-shaped pipeline: continuous readout at a fractional
    /// (quasi-periodic) rate feeding a three-stage chain, sized so a
    /// run spans many thousands of readout periods.
    fn quasi_periodic_sim(src_rate: f64, total_scale: f64) -> PipelineSim {
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("readout", SourceMode::Continuous);
        let ds = b.add_stage("down", 2);
        let fs = b.add_stage("sub", 2);
        let dnn = b.add_stage("dnn", 16);
        b.connect(
            src,
            ds,
            &buf("b0", 1280),
            src_rate,
            4.0,
            2560.0 * total_scale,
        );
        b.connect(ds, fs, &buf("b1", 1280), 1.0, 1.0, 640.0 * total_scale);
        b.connect(
            fs,
            dnn,
            &buf("b2", 1312),
            1.0,
            0.2417776703,
            640.0 * total_scale,
        );
        b.build().unwrap()
    }

    #[test]
    fn run_check_agrees_with_exact_run_on_passing_sims() {
        // Long enough that the steady-state early pass engages
        // (hundreds of readout periods) yet cheap to also run exactly.
        for scale in [1.0, 40.0] {
            let sim = quasi_periodic_sim(0.095183500072, scale);
            sim.run(100_000_000)
                .unwrap_or_else(|e| panic!("exact run must pass at scale {scale}: {e}"));
            sim.run_check(100_000_000)
                .unwrap_or_else(|e| panic!("run_check must pass at scale {scale}: {e}"));
        }
    }

    #[test]
    fn run_check_reproduces_exact_failure_diagnoses() {
        // Overflow: readout faster than the chain can drain.
        let mut b = PipelineSimBuilder::new();
        let src = b.add_source("readout", SourceMode::Continuous);
        let slow = b.add_stage("slow", 1);
        b.connect(src, slow, &buf("f", 8), 4.0, 2.0, 25600.0);
        let sim = b.build().unwrap();
        let exact = sim.run(10_000).unwrap_err();
        let check = sim.run_check(10_000).unwrap_err();
        assert_eq!(exact.to_string(), check.to_string());

        // Cycle limit: budget far below the frame length.
        let sim = quasi_periodic_sim(0.095183500072, 40.0);
        let exact = sim.run(5_000).unwrap_err();
        let check = sim.run_check(5_000).unwrap_err();
        assert!(
            matches!(exact, SimError::CycleLimitExceeded { .. }),
            "{exact}"
        );
        assert_eq!(exact.to_string(), check.to_string());
    }

    #[test]
    fn run_check_budget_guard_defers_to_cycle_limit() {
        // Budget large enough for steady-state detection (≳256 readout
        // periods ≈ 11k cycles) but below the full frame: the early
        // pass must not claim `Done` where the exact run would report
        // the cycle limit.
        let sim = quasi_periodic_sim(0.095183500072, 40.0);
        let exact = sim.run(40_000).unwrap_err();
        let check = sim.run_check(40_000).unwrap_err();
        assert!(
            matches!(exact, SimError::CycleLimitExceeded { .. }),
            "{exact}"
        );
        assert_eq!(exact.to_string(), check.to_string());
    }
}
