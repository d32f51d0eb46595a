//! One pass of a workload: bootstrap an engine, replay every event
//! through it from this single thread (closed loop: each call starts
//! when the previous one returns), then close with one manual refresh
//! so every accepted rating reaches a published epoch.
//!
//! Every call into the system is timed on its own. Work the driver does
//! for itself — checking sampled responses against brute force, and in
//! a traced pass replaying each refresh from outside — runs with the
//! clock paused, so it never counts as the system's time and a traced
//! pass compares with an untraced one like for like.

use crate::workload::{Event, Inputs, Invalid};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use tcam_core::{FoldInRating, FoldedUser, TtcamModel};
use tcam_data::{Rating, TimeId, UserId};
use tcam_math::topk::Scored;
use tcam_online::{IngestLog, OnlineEngine, OnlineError, RefreshReport};
use tcam_rec::brute_force_top_k;
use tcam_serve::{FoldedScorer, ModelSnapshot, Query, Response, Source};

/// One response in this many is checked against brute force.
const GATE_EVERY: usize = 32;
/// Failure messages printed per pass; later ones are only counted.
const MAX_REPORTED_FAILURES: u64 = 10;

/// Kinds of operation a pass attempts, tallied separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The cold fit that publishes epoch 1.
    Bootstrap,
    /// A valid rating through `OnlineEngine::ingest`.
    Ingest,
    /// An injected invalid rating, which must come back as its typed error.
    Reject,
    /// `ServeEngine::query` (impression and background queries).
    Query,
    /// `ServeEngine::query_with_history`.
    History,
    /// The closing `OnlineEngine::refresh`.
    Refresh,
}

impl Op {
    /// Every kind, in report order.
    pub const ALL: [Op; 6] =
        [Op::Bootstrap, Op::Ingest, Op::Reject, Op::Query, Op::History, Op::Refresh];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Bootstrap => "bootstrap",
            Op::Ingest => "ingest",
            Op::Reject => "reject",
            Op::Query => "query",
            Op::History => "history",
            Op::Refresh => "refresh",
        }
    }
}

/// Attempted and failed operations per [`Op`]. A panic, an unexpected
/// error, or a response that does not match brute force is a failure.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Attempts, indexed like [`Op::ALL`].
    pub attempted: [u64; 6],
    /// Failures, indexed like [`Op::ALL`].
    pub failed: [u64; 6],
}

impl Tally {
    fn attempt(&mut self, op: Op) {
        self.attempted[op as usize] += 1;
    }

    fn fail(&mut self, op: Op) {
        self.failed[op as usize] += 1;
    }

    /// Adds another tally into this one.
    pub fn add(&mut self, other: &Tally) {
        for i in 0..Op::ALL.len() {
            self.attempted[i] += other.attempted[i];
            self.failed[i] += other.failed[i];
        }
    }
}

/// One timed span: a call into the system, or one stage of a shadow
/// replay. Stage spans are children of the refresh (or bootstrap) span
/// they explain and are laid end to end from its start.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed (`query.ta`, `ingest.refresh`, `fit_warm`, ...).
    pub name: &'static str,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Id of the event that caused it (its index in the event stream;
    /// `usize::MAX` for the bootstrap and the closing refresh).
    pub event: usize,
    /// Start, nanoseconds on the pass clock.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// What a traced pass records besides its spans.
#[derive(Debug, Default)]
pub struct Trace {
    /// Every span, in the order recorded.
    pub spans: Vec<Span>,
    /// Warm EM iterations summed over the pass's refreshes.
    pub em_iterations: u64,
    /// Training-cuboid nonzeros at each refresh.
    pub nnz: Vec<u64>,
    /// Items examined by each TA-answered query.
    pub ta_examined: Vec<u64>,
    /// Items examined by each fold-in (unseen user) query.
    pub foldin_examined: Vec<u64>,
    /// Cached responses a swap dropped, per refresh.
    pub dropped_per_swap: Vec<u64>,
    /// Blocks the TA kernel pruned, over the pass.
    pub blocks_skipped: u64,
    /// Cache hits over the pass.
    pub cache_hits: u64,
    /// Cache lookups (hits plus misses) over the pass.
    pub cache_lookups: u64,
    /// Ratings the log rejected over the pass.
    pub rejected: u64,
    /// `(refresh span, sum of its shadow stages)` per refresh, ns.
    pub reconcile: Vec<(u64, u64)>,
    /// Shadow fits that were not bitwise equal to the engine's model.
    pub shadow_mismatches: u64,
    /// Refreshes the driver predicted wrongly (fired unpredicted, or
    /// predicted and did not fire).
    pub mispredicted: u64,
}

impl Trace {
    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        event: usize,
        start_ns: u64,
        dur_ns: u64,
    ) -> usize {
        self.spans.push(Span { name, parent, event, start_ns, dur_ns });
        self.spans.len() - 1
    }
}

/// Raw measurements of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Whether spans and shadow replays were recorded.
    pub traced: bool,
    /// Duration of `OnlineEngine::bootstrap`.
    pub setup_ns: u64,
    /// Pass-clock time from the end of set-up to the end of the closing
    /// refresh (excludes paused bookkeeping).
    pub active_ns: u64,
    /// Ratings accepted.
    pub accepted: u64,
    /// Time taking accepted ratings in and publishing them: `ingest`
    /// calls that accepted their rating (with the refreshes they
    /// trigger) plus the closing refresh.
    pub ingest_ns: u64,
    /// Duration of every refresh: `ingest` calls that returned a
    /// `RefreshReport`, plus the closing manual refresh.
    pub refresh_ns: Vec<u64>,
    /// Per accepted rating: from the start of its `ingest` call until
    /// the end of the call that published an epoch containing it.
    pub staleness_ns: Vec<u64>,
    /// Service time of every query, all sources.
    pub query_ns: Vec<u64>,
    /// Sum of `query_ns`.
    pub query_total_ns: u64,
    /// Impression queries answered.
    pub impressions: u64,
    /// Impression queries whose top-10 held the item then rated.
    pub hits: u64,
    /// Epoch serving at the end of the pass.
    pub final_epoch: u64,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Responses checked against brute force.
    pub gate_checked: u64,
    /// Whether the pass ended in a panic.
    pub panicked: bool,
    /// Spans and per-layer counts (empty unless `traced`).
    pub trace: Trace,
}

/// Runs one pass of `inputs`. A panic anywhere in it is caught, counted
/// as a failure of the operation in flight, and ends the pass.
pub fn run(inputs: &Inputs, traced: bool) -> Pass {
    let mut pass = Pass { traced, ..Pass::default() };
    let mut current = Op::Bootstrap;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Driver::new(inputs, &mut pass, &mut current).replay();
    }));
    if outcome.is_err() {
        pass.panicked = true;
        pass.tally.fail(current);
    }
    pass
}

/// Times one `OnlineEngine::bootstrap` of `inputs` (the set-up every
/// pass also runs), or `None` if it fails; the pass's own bootstrap
/// reports the failure.
pub fn time_setup(inputs: &Inputs) -> Option<u64> {
    let seed = inputs.bootstrap.clone();
    let start = Instant::now();
    let booted = OnlineEngine::bootstrap(
        inputs.num_users,
        inputs.num_items,
        inputs.max_times,
        seed,
        inputs.config.clone(),
    );
    let ns = nanos(start.elapsed());
    booted.ok().map(|_| ns)
}

/// Monotonic clock that stops while the driver does its own work.
struct Clock {
    origin: Instant,
    paused: Duration,
}

impl Clock {
    fn start() -> Self {
        Clock { origin: Instant::now(), paused: Duration::ZERO }
    }

    fn now(&self) -> u64 {
        nanos(self.origin.elapsed().saturating_sub(self.paused))
    }

    /// Runs `f` with the clock stopped.
    fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.paused += start.elapsed();
        out
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Times `f` on the wall clock (used inside paused shadow work).
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, nanos(start.elapsed()))
}

struct Driver<'a> {
    inputs: &'a Inputs,
    pass: &'a mut Pass,
    current: &'a mut Op,
    clock: Clock,
    /// Start times of accepted ratings no published epoch contains yet.
    pending: Vec<u64>,
    /// Brute-force score buffer of the correctness gate.
    buffer: Vec<f64>,
    reported: u64,
}

impl<'a> Driver<'a> {
    fn new(inputs: &'a Inputs, pass: &'a mut Pass, current: &'a mut Op) -> Self {
        if pass.traced {
            pass.trace.spans.reserve(inputs.events.len() + 4096);
        }
        Driver {
            inputs,
            pass,
            current,
            clock: Clock::start(),
            pending: Vec::with_capacity(inputs.events.len()),
            buffer: vec![0.0; inputs.num_items],
            reported: 0,
        }
    }

    fn begin(&mut self, op: Op) {
        *self.current = op;
        self.pass.tally.attempt(op);
    }

    fn fail(&mut self, op: Op, why: impl std::fmt::Display) {
        self.pass.tally.fail(op);
        self.reported += 1;
        if self.reported <= MAX_REPORTED_FAILURES {
            eprintln!("FAILED {}: {why}", op.name());
        }
    }

    fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        event: usize,
        start: u64,
        dur: u64,
    ) -> usize {
        self.pass.trace.push(name, parent, event, start, dur)
    }

    fn replay(mut self) {
        let inputs = self.inputs;
        let seed = inputs.bootstrap.clone();
        self.begin(Op::Bootstrap);
        let t0 = self.clock.now();
        let booted = OnlineEngine::bootstrap(
            inputs.num_users,
            inputs.num_items,
            inputs.max_times,
            seed,
            inputs.config.clone(),
        );
        let setup = self.clock.now() - t0;
        self.pass.setup_ns = setup;
        let mut eng = match booted {
            Ok(eng) => eng,
            Err(e) => return self.fail(Op::Bootstrap, e),
        };
        if self.pass.traced {
            let span = self.span("bootstrap", None, usize::MAX, t0, setup);
            let shadow = self.clock.pause(|| shadow_bootstrap(inputs, &eng));
            self.explain(span, usize::MAX, t0, setup, shadow, Op::Bootstrap);
        }

        let origin = self.clock.now();
        for (id, event) in inputs.events.iter().enumerate() {
            match *event {
                Event::Impression(q, item) => {
                    let response = self.query(&eng, id, q);
                    self.pass.impressions += 1;
                    if response.items.iter().any(|s| s.index == item.index()) {
                        self.pass.hits += 1;
                    }
                }
                Event::Query(q) => {
                    self.query(&eng, id, q);
                }
                Event::History(q, session) => self.history(&eng, id, q, &inputs.sessions[session]),
                Event::Rate(r) => self.rate(&mut eng, id, r),
                Event::Reject(r, kind) => self.reject(&mut eng, id, r, kind),
            }
        }
        self.close(&mut eng);
        self.pass.active_ns = self.clock.now() - origin;
        self.pass.final_epoch = eng.epoch();
        if self.pass.traced {
            let cache = eng.serve().cache();
            let trace = &mut self.pass.trace;
            trace.cache_hits = cache.hits();
            trace.cache_lookups = cache.hits() + cache.misses();
            trace.blocks_skipped = eng.serve().stats().blocks_skipped;
            trace.rejected = eng.log().rejected();
        }
    }

    fn query(&mut self, eng: &OnlineEngine, id: usize, q: Query) -> Response {
        self.begin(Op::Query);
        let t0 = self.clock.now();
        let response = eng.query(q);
        let dur = self.clock.now() - t0;
        self.pass.query_ns.push(dur);
        self.pass.query_total_ns += dur;
        if self.pass.traced {
            let name = match response.source {
                Source::CacheHit => "query.cache_hit",
                Source::TaIndex => "query.ta",
                Source::FoldIn => "query.foldin",
                Source::BruteForce => "query.brute_force",
            };
            self.span(name, None, id, t0, dur);
            let examined = response.items_examined as u64;
            match response.source {
                Source::TaIndex => self.pass.trace.ta_examined.push(examined),
                Source::FoldIn => self.pass.trace.foldin_examined.push(examined),
                Source::CacheHit | Source::BruteForce => {}
            }
        }
        if id.is_multiple_of(GATE_EVERY) {
            let buffer = &mut self.buffer;
            let ok = self.clock.pause(|| matches_brute_force(eng, q, &response, None, buffer));
            self.pass.gate_checked += 1;
            if !ok {
                self.fail(Op::Query, format!("event {id}: {q:?} differs from brute force"));
            }
        }
        response
    }

    fn history(&mut self, eng: &OnlineEngine, id: usize, q: Query, session: &[FoldInRating]) {
        self.begin(Op::History);
        let t0 = self.clock.now();
        let response = eng.serve().query_with_history(q, session);
        let dur = self.clock.now() - t0;
        self.pass.query_ns.push(dur);
        self.pass.query_total_ns += dur;
        let traced = self.pass.traced;
        let span = traced.then(|| self.span("query.history", None, id, t0, dur));
        if response.source != Source::FoldIn {
            self.fail(Op::History, format!("event {id}: answered by {:?}", response.source));
        }
        let gated = id.is_multiple_of(GATE_EVERY);
        if !(traced || gated) {
            return;
        }
        // The fold-in itself, repeated on the answering snapshot: timed
        // for `core.foldin_us`, and the user the gate scores with.
        let (folded, fold_ns) = self.clock.pause(|| {
            let snap = eng.serve().snapshot();
            let config = eng.serve().config();
            timed(|| {
                snap.model().fold_in_user(
                    session,
                    config.foldin_iterations,
                    config.foldin_shrinkage,
                )
            })
        });
        if let Some(span) = span {
            self.span("foldin", Some(span), id, t0, fold_ns);
        }
        if gated {
            let buffer = &mut self.buffer;
            let ok =
                self.clock.pause(|| matches_brute_force(eng, q, &response, Some(&folded), buffer));
            self.pass.gate_checked += 1;
            if !ok {
                self.fail(Op::History, format!("event {id}: {q:?} differs from brute force"));
            }
        }
    }

    fn rate(&mut self, eng: &mut OnlineEngine, id: usize, r: Rating) {
        // A traced pass predicts the refresh this rating triggers, so it
        // can keep the prior model the refresh warm-starts from.
        let prior = if self.pass.traced {
            self.clock.pause(|| {
                let policy = eng.config().policy;
                let rolls_over = r.time.index() >= eng.log().num_times();
                let due = (policy.on_rollover && rolls_over)
                    || policy.every_ratings.is_some_and(|n| eng.since_refresh() + 1 >= n);
                due.then(|| (eng.serve().cache().len() as u64, eng.model().clone()))
            })
        } else {
            None
        };
        self.begin(Op::Ingest);
        let t0 = self.clock.now();
        let outcome = eng.ingest(r);
        let t1 = self.clock.now();
        let dur = t1 - t0;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => return self.fail(Op::Ingest, format!("event {id}: {e}")),
        };
        self.pass.accepted += 1;
        self.pass.ingest_ns += dur;
        self.pending.push(t0);
        match outcome.refreshed {
            None => {
                if self.pass.traced {
                    self.span("ingest", None, id, t0, dur);
                    if prior.is_some() {
                        self.pass.trace.mispredicted += 1;
                    }
                }
            }
            Some(report) => {
                self.published(t1, dur);
                if self.pass.traced {
                    let span = self.span("ingest.refresh", None, id, t0, dur);
                    self.explain_refresh(eng, span, id, t0, dur, report, prior);
                }
            }
        }
    }

    fn reject(&mut self, eng: &mut OnlineEngine, id: usize, r: Rating, kind: Invalid) {
        self.begin(Op::Reject);
        let t0 = self.clock.now();
        let outcome = eng.ingest(r);
        let dur = self.clock.now() - t0;
        if self.pass.traced {
            self.span("ingest.rejected", None, id, t0, dur);
        }
        let typed = matches!(
            (kind, &outcome),
            (Invalid::User, Err(OnlineError::IdOutOfRange { kind: "user", .. }))
                | (Invalid::Item, Err(OnlineError::IdOutOfRange { kind: "item", .. }))
                | (Invalid::NaN, Err(OnlineError::InvalidValue { .. }))
                | (Invalid::TimeRegression, Err(OnlineError::TimeRegression { .. }))
        );
        if !typed {
            self.fail(Op::Reject, format!("event {id}: {kind:?} rating came back as {outcome:?}"));
        }
    }

    /// The closing manual refresh: publishes every pending rating.
    fn close(&mut self, eng: &mut OnlineEngine) {
        let prior = if self.pass.traced {
            self.clock.pause(|| Some((eng.serve().cache().len() as u64, eng.model().clone())))
        } else {
            None
        };
        self.begin(Op::Refresh);
        let t0 = self.clock.now();
        let refreshed = eng.refresh();
        let t1 = self.clock.now();
        let dur = t1 - t0;
        let report = match refreshed {
            Ok(report) => report,
            Err(e) => return self.fail(Op::Refresh, e),
        };
        self.published(t1, dur);
        self.pass.ingest_ns += dur;
        if self.pass.traced {
            let span = self.span("refresh", None, usize::MAX, t0, dur);
            self.explain_refresh(eng, span, usize::MAX, t0, dur, report, prior);
        }
    }

    /// A refresh of duration `dur` published an epoch at `at`.
    fn published(&mut self, at: u64, dur: u64) {
        self.pass.refresh_ns.push(dur);
        self.pass.staleness_ns.extend(self.pending.drain(..).map(|accepted| at - accepted));
    }

    #[allow(clippy::too_many_arguments)]
    fn explain_refresh(
        &mut self,
        eng: &OnlineEngine,
        span: usize,
        id: usize,
        t0: u64,
        dur: u64,
        report: RefreshReport,
        prior: Option<(u64, TtcamModel)>,
    ) {
        let Some((cached, prior)) = prior else {
            self.pass.trace.mispredicted += 1;
            return;
        };
        let trace = &mut self.pass.trace;
        trace.dropped_per_swap.push(cached);
        trace.em_iterations += report.em_iterations as u64;
        trace.nnz.push(report.nnz as u64);
        let shadow = self.clock.pause(|| shadow_refresh(eng, &prior, report.epoch));
        self.explain(span, id, t0, dur, shadow, Op::Refresh);
    }

    /// Records the shadow stages of a refresh (or the bootstrap) as
    /// children of `span`, and its reconciliation with the span.
    fn explain(
        &mut self,
        span: usize,
        id: usize,
        t0: u64,
        dur: u64,
        shadow: Result<Shadow, OnlineError>,
        op: Op,
    ) {
        let shadow = match shadow {
            Ok(shadow) => shadow,
            Err(e) => return self.fail(op, format!("shadow replay failed: {e}")),
        };
        let mut start = t0;
        for &(name, ns) in &shadow.stages {
            self.span(name, Some(span), id, start, ns);
            start += ns;
        }
        let trace = &mut self.pass.trace;
        if op != Op::Bootstrap {
            trace.reconcile.push((dur, start - t0));
        }
        if !shadow.bitwise {
            trace.shadow_mismatches += 1;
        }
    }
}

/// `(span name, ns)` per stage, in pipeline order.
type Stages = Vec<(&'static str, u64)>;

/// A refresh (or bootstrap) replayed stage by stage on copies.
struct Shadow {
    stages: Stages,
    /// Whether the shadow fit is bitwise equal to the engine's model.
    bitwise: bool,
}

/// Times the shadow stages this many times and keeps each stage's
/// median, so one preempted stage does not skew the reconciliation.
const SHADOW_REPEATS: usize = 3;

/// Replays the refresh that just published `epoch`: the same stages
/// `OnlineEngine::refresh` runs, each timed, warm-started from a copy
/// of the model the refresh started from.
fn shadow_refresh(
    eng: &OnlineEngine,
    prior: &TtcamModel,
    epoch: u64,
) -> Result<Shadow, OnlineError> {
    shadow_fit(eng, eng.log(), Some(prior), epoch, Vec::new())
}

/// Replays the bootstrap: log construction, then the cold fit's stages.
fn shadow_bootstrap(inputs: &Inputs, eng: &OnlineEngine) -> Result<Shadow, OnlineError> {
    let (log, append_ns) = timed(|| {
        let mut log = IngestLog::new(inputs.num_users, inputs.num_items, inputs.max_times);
        log.append_all(inputs.bootstrap.iter().copied()).map(|_| log)
    });
    shadow_fit(eng, &log?, None, 1, vec![("bootstrap.append", append_ns)])
}

/// Runs the fit stages [`SHADOW_REPEATS`] times after `stages` and
/// reports each stage's median duration.
fn shadow_fit(
    eng: &OnlineEngine,
    log: &IngestLog,
    prior: Option<&TtcamModel>,
    epoch: u64,
    mut stages: Stages,
) -> Result<Shadow, OnlineError> {
    let mut bitwise = true;
    let mut runs = Vec::with_capacity(SHADOW_REPEATS);
    for _ in 0..SHADOW_REPEATS {
        let (run, same) = shadow_stages(eng, log, prior, epoch)?;
        bitwise &= same;
        runs.push(run);
    }
    for (i, &(name, _)) in runs[0].iter().enumerate() {
        let mut ns: Vec<u64> = runs.iter().map(|run| run[i].1).collect();
        ns.sort_unstable();
        stages.push((name, ns[ns.len() / 2]));
    }
    Ok(Shadow { stages, bitwise })
}

/// One timed run of the stages `OnlineEngine::refresh` (or, without a
/// prior, `bootstrap`) runs, and whether its fit is bitwise equal to the
/// engine's model.
fn shadow_stages(
    eng: &OnlineEngine,
    log: &IngestLog,
    prior: Option<&TtcamModel>,
    epoch: u64,
) -> Result<(Stages, bool), OnlineError> {
    let config = eng.config();
    let cold = prior.is_none();
    let mut stages = Vec::with_capacity(5);
    let (cuboid, ns) = timed(|| log.materialize());
    stages.push((if cold { "bootstrap.materialize" } else { "materialize" }, ns));
    let train = match config.weighting {
        Some(scheme) => {
            let (train, ns) = timed(|| log.weighting().apply_with(scheme, &cuboid));
            stages.push((if cold { "bootstrap.weighting" } else { "weighting" }, ns));
            train
        }
        None => cuboid,
    };
    let (fit, ns) = timed(|| match prior {
        Some(prior) => TtcamModel::fit_warm(&train, &config.fit, prior),
        None => TtcamModel::fit(&train, &config.fit),
    });
    stages.push((if cold { "fit_cold" } else { "fit_warm" }, ns));
    let model = fit?.model;
    let bitwise = same_bits(&model, eng.model());
    // As in the engine, the snapshot gets its own copy of the model.
    let (snapshot, ns) = timed(|| ModelSnapshot::new(model.clone(), epoch));
    stages.push((if cold { "bootstrap.snapshot_build" } else { "snapshot_build" }, ns));
    // A refresh then frees the epoch it replaced: a model and a snapshot
    // of this size.
    let ((), ns) = timed(|| drop((model, snapshot)));
    if !cold {
        stages.push(("release", ns));
    }
    Ok((stages, bitwise))
}

/// Whether two models hold bitwise-identical parameters.
fn same_bits(a: &TtcamModel, b: &TtcamModel) -> bool {
    fn eq(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    }
    let shape = |m: &TtcamModel| {
        (m.num_users(), m.num_items(), m.num_times(), m.num_user_topics(), m.num_time_topics())
    };
    shape(a) == shape(b)
        && eq(a.lambdas(), b.lambdas())
        && eq(a.background(), b.background())
        && a.background_weight().to_bits() == b.background_weight().to_bits()
        && (0..a.num_users())
            .all(|u| eq(a.user_interest(UserId::from(u)), b.user_interest(UserId::from(u))))
        && (0..a.num_user_topics()).all(|z| eq(a.user_topic(z), b.user_topic(z)))
        && (0..a.num_times())
            .all(|t| eq(a.temporal_context(TimeId::from(t)), b.temporal_context(TimeId::from(t))))
        && (0..a.num_time_topics()).all(|x| eq(a.time_topic(x), b.time_topic(x)))
}

/// The correctness gate: whether `response` is exactly what brute force
/// over the snapshot that answered it returns (ids outright, scores
/// within 1e-10), and whether it carries the engine's epoch. Unseen
/// users score with the snapshot's context-only prior; `folded` is the
/// user of a history query.
fn matches_brute_force(
    eng: &OnlineEngine,
    q: Query,
    response: &Response,
    folded: Option<&FoldedUser>,
    buffer: &mut [f64],
) -> bool {
    let snap = eng.serve().snapshot();
    if response.epoch != snap.epoch() || response.epoch != eng.epoch() {
        return false;
    }
    let time = TimeId(q.time.0.min(snap.num_times().saturating_sub(1) as u32));
    let model = snap.model();
    let expected = match folded {
        Some(folded) => {
            brute_force_top_k(&FoldedScorer { model, folded }, q.user, time, q.k, buffer)
        }
        None if q.user.index() < snap.num_users() => {
            brute_force_top_k(model, q.user, time, q.k, buffer)
        }
        None => {
            let folded = snap.default_folded();
            brute_force_top_k(&FoldedScorer { model, folded }, q.user, time, q.k, buffer)
        }
    };
    same_top_k(&response.items, &expected)
}

fn same_top_k(got: &[Scored], expected: &[Scored]) -> bool {
    got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(a, b)| a.index == b.index && (a.score - b.score).abs() <= 1e-10)
}
