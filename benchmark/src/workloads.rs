//! The four workloads: what is set up, what one op is, what is checked.
//!
//! Load is one client in a closed loop: the next op is issued when the
//! previous one returned. The program's own kernel threads stay at their
//! default (`available_parallelism`).
//!
//! Every workload first repeats its set-up untimed (*page-warm*: the first
//! pass in a fresh process pays first-touch page faults that no later pass
//! pays), then times set-up several times and reports the median, then
//! runs ops for `--seconds`, always finishing the round it is in.
//!
//! Host-time metrics are taken over every completed op. Simulated metrics,
//! counts and digests are taken over the first *exact rounds* only, which
//! always run: they then depend on the seed alone, not on how many rounds
//! the machine got through in `--seconds`.
//!
//! An untraced run gives the end-to-end metrics. A traced run serves every
//! round twice — on the real engine, as the reference, then re-enacted
//! stage by stage with spans — so both see the same queries in the same
//! minute, and gives the per-layer metrics.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::metrics::PER_LAYER;
use crate::stats::{mean, median, peak_rss_mb, percentile, Fnv1a};
use crate::stream::{rank_inside_stratum, StratifiedStream, FIRST_OP_ID};
use crate::sut::{
    pool_op, pool_op_staged, pool_options, pool_row_accuracies, InstallProfile, LatencyBand,
    PoolOutcome, PoolReplay, Profiles, Query, Row, ServePreset, Served, Staged, StepProfile, Sut,
    Zoo,
};
use crate::trace::{Span, Tracer};

/// Untimed repetitions of the set-up before anything is timed.
const PAGE_WARM: usize = 2;
/// Timed repetitions of the set-up; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds every timed phase runs, however short `--seconds`, and the
/// rounds its simulated metrics, counts and digest cover. A power of two:
/// the van der Corput latency constraints of a stratum then split the
/// band evenly.
const EXACT_ROUNDS: usize = 16;
/// Queries re-served on an engine built with fusion off.
const FUSION_CHECK: usize = 5;
/// The cold-start query of an engine (first serve, SubNet A).
const COLD_START_ID: u64 = 0;
/// Simulated queries of `pool_sim`'s shortest op. Preset `k` of a round
/// offers `(4 + k) / 4` times as many, up to twice: the presets cost about
/// the same per query, so equal streams would give one merged cluster of
/// op times with the p90 far out in its tail. The ladder gives each preset
/// a cluster of its own, as the SubNets are on the Functional workloads,
/// and ops of 80-160 ms that a short stall does not double.
const POOL_QUERIES: usize = 10_000;
const POOL_PRESETS: [ServePreset; 5] = [
    ServePreset::Burst,
    ServePreset::Diurnal,
    ServePreset::MultiTenant,
    ServePreset::Scale,
    ServePreset::Chaos,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Mbv3Replay,
    Resnet50Replay,
    Resnet50Switch,
    PoolSim,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Mbv3Replay,
        Workload::Resnet50Replay,
        Workload::Resnet50Switch,
        Workload::PoolSim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mbv3Replay => "mbv3_replay",
            Workload::Resnet50Replay => "resnet50_replay",
            Workload::Resnet50Switch => "resnet50_switch",
            Workload::PoolSim => "pool_sim",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy zoo and short simulated streams: seconds, not minutes.
    pub smoke: bool,
}

/// What one run reports.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Printed beside the metrics, not part of the result object:
    /// digests and sample counts.
    pub notes: Vec<(&'static str, String)>,
    /// Files the traced run writes: (file name, contents).
    pub files: Vec<(String, String)>,
}

pub fn run(workload: Workload, cfg: &RunConfig) -> Result<Report, String> {
    match workload {
        Workload::PoolSim => pool_sim(cfg),
        _ => functional(workload, cfg),
    }
}

// ------------------------------------------------------ shared accounting

/// Everything recorded about the timed ops of one phase.
#[derive(Debug, Default)]
struct OpLog {
    /// (stratum, wall ms) of every completed op.
    ops: Vec<(usize, f64)>,
    attempted: u64,
    failed: u64,
    /// Queries completed in timed ops (simulated queries for `pool_sim`).
    queries: u64,
    /// What each completed op returned, in order: for MAC accounting, and
    /// to hold the re-enactment against the real engine op by op.
    served: Vec<Served>,
    /// The first round: what the fusion check re-serves.
    first: Vec<(Query, Option<usize>)>,
    /// Over the exact rounds only.
    exact: Exact,
}

/// What depends on the seed alone: sums over the exact rounds.
#[derive(Debug, Default)]
struct Exact {
    offered: u64,
    violations: u64,
    served: u64,
    latency_sum: f64,
    accuracy_sum: f64,
    hit_ratio_sum: f64,
    cache_updates: u64,
    digest: Fnv1a,
}

impl OpLog {
    /// Records one Functional op of round `round` and stratum `stratum`,
    /// aimed at `target`.
    fn record(
        &mut self,
        q: &Query,
        (stratum, target): (usize, &Row),
        result: Result<(Served, f64), String>,
        round: usize,
    ) {
        let exact = round < EXACT_ROUNDS;
        self.attempted += 1;
        self.exact.offered += u64::from(exact);
        let Ok((served, ms)) = result else {
            // A failed op misses any latency limit.
            self.failed += 1;
            self.exact.violations += u64::from(exact);
            return;
        };
        let ok = served.subnet_row == target.row
            && served.served_accuracy >= q.accuracy_constraint
            && served.prediction.is_some();
        self.failed += u64::from(!ok);
        self.ops.push((stratum, ms));
        self.queries += 1;
        self.served.push(served);
        if round == 0 {
            self.first.push((*q, served.prediction));
        }
        if exact {
            let x = &mut self.exact;
            x.served += 1;
            x.latency_sum += served.served_latency_ms;
            x.accuracy_sum += served.served_accuracy;
            x.hit_ratio_sum += served.hit_ratio;
            x.violations += u64::from(served.served_latency_ms > q.latency_constraint_ms);
            x.cache_updates += u64::from(served.cache_updated);
            x.digest.push(q.id);
            x.digest.push(served.subnet_row as u64);
            x.digest.push(served.prediction.map_or(u64::MAX, |p| p as u64));
        }
    }

    fn op_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|(_, ms)| *ms).collect()
    }

    fn end_to_end(&self, setups: &[f64]) -> Result<Vec<(&'static str, f64)>, String> {
        let x = &self.exact;
        if self.ops.is_empty() || x.served == 0 {
            return Err("no op completed".into());
        }
        let op_ms = self.op_ms();
        let wall_s = op_ms.iter().sum::<f64>() / 1e3;
        Ok(vec![
            ("setup_s", median(setups)),
            ("queries_per_s", self.queries as f64 / wall_s),
            ("op_ms_p50", percentile(&op_ms, 0.5)),
            ("op_ms_p90", percentile(&op_ms, 0.9)),
            ("peak_rss_mb", peak_rss_mb()?),
            ("sim_latency_ms_mean", x.latency_sum / x.served as f64),
            ("sim_accuracy_mean", x.accuracy_sum / x.served as f64),
            ("sim_slo_violation_rate", x.violations as f64 / x.offered as f64),
        ])
    }
}

/// All per-layer metrics, zero until set.
struct PerLayer(Vec<(&'static str, f64)>);

impl PerLayer {
    fn zeros() -> Self {
        Self(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.iter_mut().find(|(n, _)| *n == name);
        // `+ 0.0` turns the -0.0 an empty sum gives into 0.0.
        slot.unwrap_or_else(|| panic!("{name} is not a per-layer metric")).1 =
            if value.is_finite() { value + 0.0 } else { 0.0 };
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds.max(0.0))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The two tracing figures every workload reports. Both halves served the
/// same ops in the same order, a round apart, so they are compared pair by
/// pair: the overhead over all the time spent, the re-enactment gap at the
/// median pair, which a disturbed op on either side does not move.
fn trace_figures(m: &mut PerLayer, reference: &OpLog, traced: &OpLog) {
    let pairs = || reference.ops.iter().zip(&traced.ops).map(|((_, r), (_, t))| (*r, *t));
    let (real_ms, traced_ms) = pairs().fold((0.0, 0.0), |(r, t), (dr, dt)| (r + dr, t + dt));
    m.set("trace.overhead_frac", ratio(traced_ms, real_ms) - 1.0);
    let ratios: Vec<f64> = pairs().map(|(r, t)| ratio(t, r)).collect();
    m.set("trace.reenact_gap_frac", (median(&ratios) - 1.0).abs());
}

// --------------------------------------------------- Functional workloads

/// A serving stack: the real engine, or its staged re-enactment when a
/// tracer is given.
enum Stack {
    Real(Box<Sut>),
    Staged(Box<Staged>),
}

impl Stack {
    fn build(zoo: Zoo, tr: &mut Option<Tracer>) -> Result<Self, String> {
        Ok(match tr {
            None => Stack::Real(Box::new(Sut::build(zoo, true)?)),
            Some(tr) => {
                // `EngineBuilder::build` alone, built and dropped.
                tr.time(COLD_START_ID, "core.engine_build", || Sut::build(zoo, true).map(drop))?;
                Stack::Staged(Box::new(Staged::build(zoo, tr, COLD_START_ID)))
            }
        })
    }

    /// Serves `q`; returns what was served and the op's wall time in ms.
    fn serve(&mut self, q: &Query, tr: &mut Option<Tracer>) -> Result<(Served, f64), String> {
        match (self, tr) {
            (Stack::Real(s), _) => {
                let t = Instant::now();
                let served = s.serve(q)?;
                Ok((served, ms_since(t)))
            }
            (Stack::Staged(s), Some(tr)) => {
                let root = tr.spans().len();
                let served = s.serve(q, tr, q.id)?;
                Ok((served, tr.span(root).dur_ns() as f64 / 1e6))
            }
            (Stack::Staged(_), None) => Err("a staged stack needs a tracer".into()),
        }
    }

    /// `Engine::memory_stats` of a real engine: (arena MB, packed SubNets).
    fn memory(&self) -> (f64, usize) {
        match self {
            Stack::Real(sut) => sut.memory(),
            Stack::Staged(_) => (0.0, 0),
        }
    }

    fn take_profiles(&mut self) -> Profiles {
        match self {
            Stack::Real(_) => Profiles::default(),
            Stack::Staged(staged) => staged.take_profiles(),
        }
    }

    fn set_profiles(&mut self, profiles: Profiles) {
        if let Stack::Staged(staged) = self {
            staged.set_profiles(profiles);
        }
    }

    /// One untimed serve that makes `row` resident. With `id`
    /// [`COLD_START_ID`] and row A it is the cold start of a fresh stack.
    fn install(&mut self, row: &Row, id: u64, tr: &mut Option<Tracer>) -> Result<(), String> {
        let (served, _) = self.serve(&Query::new(id, row.accuracy, f64::MAX), tr)?;
        if served.subnet_row == row.row {
            Ok(())
        } else {
            Err(format!("set-up query for {} was served by row {}", row.name, served.subnet_row))
        }
    }
}

/// What the Functional workloads share: which zoo, its serving set, the
/// band latency constraints are drawn from, and the stream's strata.
struct Functional<'a> {
    cfg: &'a RunConfig,
    zoo: Zoo,
    /// `resnet50_switch`: fresh engine per pass, ops are first visits.
    switch: bool,
    rows: Vec<Row>,
    band: LatencyBand,
    strata: Vec<Row>,
}

/// The strata of a stream: the serving set without its first `skip` rows,
/// cut to an odd count so the median rank falls inside one stratum. (The
/// paper zoos are odd already; the toy zoo may not be.)
fn strata(rows: &[Row], skip: usize) -> Vec<Row> {
    let mut s = rows[skip..].to_vec();
    if s.len() % 2 == 0 && s.len() > 1 {
        s.remove(0);
    }
    s
}

/// What one timed phase of a Functional workload produced.
struct Phase {
    /// Ops on the real engine: all there is in an untraced run, the
    /// reference in a traced one.
    real: OpLog,
    /// Traced runs: the same ops re-enacted under the tracer, and the
    /// staged stack that holds the profiles.
    traced: Option<(OpLog, Stack)>,
    setups: Vec<f64>,
    /// `Engine::memory_stats` of the last real engine: (arena MB, packed).
    memory: (f64, usize),
}

impl Functional<'_> {
    /// The replay set-up: an engine with every SubNet installed.
    fn setup(&self, tr: &mut Option<Tracer>) -> Result<Stack, String> {
        let mut stack = Stack::build(self.zoo, tr)?;
        for (id, row) in self.rows.iter().enumerate() {
            stack.install(row, id as u64, tr)?;
        }
        Ok(stack)
    }

    /// Serves one round on `stack`, op by op.
    fn serve_round(
        &self,
        stack: &mut Stack,
        round: &[(usize, Query)],
        tr: &mut Option<Tracer>,
        log: &mut OpLog,
        round_no: usize,
    ) {
        for (visited, (s, q)) in round.iter().enumerate() {
            let mut result = stack.serve(q, tr);
            // On the switch each op must have been a first visit: one more
            // SubNet packed than before it (A, then one per op).
            if let (true, Stack::Real(sut)) = (self.switch && result.is_ok(), &*stack) {
                if sut.memory().1 != visited + 2 {
                    result = Err("op was not a first visit".into());
                }
            }
            log.record(q, (*s, &self.strata[*s]), result, round_no);
        }
    }

    /// Replay: set up `setups` times, then serve shuffled rounds on the
    /// last engine. With a tracer, a staged stack is set up beside it and
    /// serves every round after the engine did: both sides of the
    /// comparison then see the same queries in the same minute.
    fn replay_phase(
        &self,
        seconds: f64,
        setups: usize,
        tr: &mut Option<Tracer>,
    ) -> Result<Phase, String> {
        let mut times = Vec::new();
        let mut real = None;
        for _ in 0..setups.max(1) {
            drop(real.take());
            let t = Instant::now();
            real = Some(self.setup(&mut None)?);
            times.push(t.elapsed().as_secs_f64());
        }
        let mut real = real.expect("at least one set-up ran");
        let mut traced = match tr {
            Some(_) => Some((OpLog::default(), self.setup(tr)?)),
            None => None,
        };
        let mut stream = StratifiedStream::new(self.strata.clone(), self.band, self.cfg.seed);
        let mut real_log = OpLog::default();
        let end = deadline(seconds);
        let mut rounds = 0;
        while rounds < EXACT_ROUNDS || Instant::now() < end {
            let round = stream.next_round();
            self.serve_round(&mut real, &round, &mut None, &mut real_log, rounds);
            if let Some((log, staged)) = &mut traced {
                self.serve_round(staged, &round, tr, log, rounds);
            }
            rounds += 1;
        }
        check_ranks(self.strata.len(), rounds)?;
        let memory = real.memory();
        Ok(Phase { real: real_log, traced, setups: times, memory })
    }

    /// Switch: every pass builds a fresh engine, cold-starts it on A, then
    /// visits each other SubNet once, in order. Set-up is engine build
    /// plus cold start; each pass gives one sample of it. With a tracer,
    /// every pass is then repeated on a fresh staged stack. One stack is
    /// alive at a time, so each is built into memory the last one freed.
    fn switch_phase(&self, seconds: f64, tr: &mut Option<Tracer>) -> Result<Phase, String> {
        let mut stream = StratifiedStream::new(self.strata.clone(), self.band, self.cfg.seed);
        let mut real_log = OpLog::default();
        let mut traced: Option<(OpLog, Stack)> = None;
        let mut times = Vec::new();
        let mut memory = (0.0, 0);
        let end = deadline(seconds);
        let mut passes = 0;
        while passes < EXACT_ROUNDS || Instant::now() < end {
            let round = stream.next_round_in_order();
            // A staged stack is dropped too, but what it learned by
            // replaying is carried into the next one.
            let carried = traced.take().map(|(log, mut staged)| (log, staged.take_profiles()));
            let t = Instant::now();
            let mut real = Stack::build(self.zoo, &mut None)?;
            real.install(&self.rows[0], COLD_START_ID, &mut None)?;
            times.push(t.elapsed().as_secs_f64());
            self.serve_round(&mut real, &round, &mut None, &mut real_log, passes);
            memory = real.memory();
            drop(real);
            if tr.is_some() {
                let (mut log, profiles) = carried.unwrap_or_default();
                let mut staged = Stack::build(self.zoo, tr)?;
                staged.set_profiles(profiles);
                staged.install(&self.rows[0], COLD_START_ID, tr)?;
                self.serve_round(&mut staged, &round, tr, &mut log, passes);
                traced = Some((log, staged));
            }
            passes += 1;
        }
        check_ranks(self.strata.len(), passes)?;
        Ok(Phase { real: real_log, traced, setups: times, memory })
    }
}

/// The p50 and p90 ranks of the balanced sample (`per_stratum` ops of each
/// stratum) must sit inside one stratum, away from its edges, or they flip
/// between two latency clusters from run to run. The margin is 5 ranks
/// from 30 ops per stratum on and shrinks below that.
fn check_ranks(strata: usize, per_stratum: usize) -> Result<(), String> {
    let margin = (per_stratum / 6).min(5);
    for p in [0.5, 0.9] {
        if strata > 1 && !rank_inside_stratum(strata, per_stratum, p, margin) {
            return Err(format!(
                "p{:.0} rank of {strata} strata x {per_stratum} is within {margin} of a stratum edge",
                p * 100.0
            ));
        }
    }
    Ok(())
}

fn functional(workload: Workload, cfg: &RunConfig) -> Result<Report, String> {
    let (zoo, skip) = match workload {
        Workload::Mbv3Replay => (Zoo::MobileNetV3, 0),
        // A is installed in set-up but never timed: strata B..F.
        _ => (Zoo::ResNet50, 1),
    };
    let zoo = if cfg.smoke { zoo.smoke() } else { zoo };
    let probe = Sut::build(zoo, true)?;
    let (rows, band) = (probe.rows(), probe.latency_band());
    drop(probe);
    let switch = workload == Workload::Resnet50Switch;
    let f = Functional { cfg, zoo, switch, strata: strata(&rows, skip), rows, band };
    let phase = |setups: usize, tr: &mut Option<Tracer>| {
        if switch {
            f.switch_phase(cfg.seconds, tr)
        } else {
            f.replay_phase(cfg.seconds, setups, tr)
        }
    };
    // Page-warm: the set-up (for the switch: one pass), repeated and dropped.
    let mut page_warm = Vec::new();
    for _ in 0..PAGE_WARM {
        let t = Instant::now();
        drop(f.setup(&mut None)?);
        page_warm.push(format!("{:.3}", t.elapsed().as_secs_f64()));
    }

    if !cfg.trace {
        let Phase { real: mut log, setups, .. } = phase(SETUPS, &mut None)?;
        // Fusion is a speed knob, never semantics: an engine built with it
        // off must predict the same.
        let mut unfused = Sut::build(zoo, false)?;
        for (q, prediction) in log.first.iter().take(FUSION_CHECK) {
            log.attempted += 1;
            let same = unfused.serve(q).is_ok_and(|s| s.prediction == *prediction);
            log.failed += u64::from(!same);
        }
        return Ok(Report {
            attempted: log.attempted,
            failed: log.failed,
            metrics: log.end_to_end(&setups)?,
            notes: vec![
                ("prediction_digest", format!("{:#018x}", log.exact.digest.0)),
                ("op_samples", log.ops.len().to_string()),
                ("setup_samples", setups.len().to_string()),
                // First pass in the process, then the second: what page-warm hides.
                ("page_warm_s", page_warm.join(",")),
            ],
            files: Vec::new(),
        });
    }

    let mut tr = Some(Tracer::new());
    let Phase { real: reference, traced, memory: (arena_mb, packed), .. } = phase(1, &mut tr)?;
    let tr = tr.expect("the tracer was created above");
    let Some((mut log, Stack::Staged(staged))) = traced else {
        return Err("traced phase ran untraced".into());
    };
    // Both stacks served the same queries from the same state: row,
    // simulated latency, hit ratio, cache decision and prediction of every
    // op must be equal.
    log.attempted += 1;
    log.failed += u64::from(log.served != reference.served);

    let is_timed = |s: &&Span| s.op >= FIRST_OP_ID;
    let named = |name: &'static str| tr.spans().iter().filter(move |s| s.name == name);
    let ms = |s: &Span| s.dur_ns() as f64 / 1e6;
    let n = log.queries.max(1) as f64;
    // Σ over timed ops ÷ queries: a stage an op skipped counts as 0.
    let per_query = |name| named(name).filter(is_timed).map(ms).sum::<f64>() / n;
    let own = tr.self_ns();
    let self_ms = |s: &Span| own[s.id] as f64 / 1e6;
    let mut m = PerLayer::zeros();
    // tensor: conv kernels replayed per (SubNet, step); sizes computed.
    let (mut fused_macs, mut direct_macs, mut bytes) = (0u64, 0u64, 0u64);
    for served in &log.served {
        for step in staged.steps_of(served.subnet_row).iter().filter(|s| s.ns.is_some()) {
            if step.kind == "FusedConv" {
                fused_macs += step.macs;
            } else {
                direct_macs += step.macs;
            }
            bytes += step.bytes;
        }
    }
    let (fused_ms, direct_ms) = (per_query("tensor.conv_fused"), per_query("tensor.conv_direct"));
    m.set("tensor.conv_fused_ms", fused_ms);
    m.set("tensor.conv_direct_ms", direct_ms);
    m.set("tensor.conv_fused_gmac_per_s", ratio(fused_macs as f64 / n / 1e9, fused_ms / 1e3));
    m.set("tensor.conv_direct_gmac_per_s", ratio(direct_macs as f64 / n / 1e9, direct_ms / 1e3));
    m.set("tensor.conv_gmac", (fused_macs + direct_macs) as f64 / n / 1e9);
    m.set("tensor.conv_mb_moved", bytes as f64 / n / 1e6);
    // Per install: the pieces of `build_fused`, replayed.
    let installs = staged.installs();
    // Integer sums: a switch run's installs repeat pass after pass, and
    // the mean must not depend on how many passes there were.
    let per_install = |f: &dyn Fn(&InstallProfile) -> u64| {
        installs.iter().map(f).sum::<u64>() as f64 / installs.len().max(1) as f64
    };
    m.set("tensor.pack_ms", tr.mean_ms("tensor.pack"));
    m.set("tensor.pack_mb", per_install(&|i| i.pack_bytes) / 1e6);
    m.set("ir.normalize_ms", tr.mean_ms("ir.normalize"));
    m.set("ir.lower_ms", tr.mean_ms("ir.lower"));
    m.set("ir.rewrites_applied", per_install(&|i| i.rewrites_applied as u64));
    m.set("ir.plan_steps", per_install(&|i| i.plan_steps as u64));
    m.set(
        "ir.fused_conv_share",
        ratio(per_install(&|i| i.fused_conv_steps as u64), per_install(&|i| i.conv_steps as u64)),
    );
    m.set("wsnet.zoo_load_ms", tr.mean_ms("wsnet.zoo_load"));
    m.set("wsnet.weight_synth_ms", tr.mean_ms("wsnet.weight_synth"));
    m.set("wsnet.build_ir_ms", tr.mean_ms("wsnet.build_ir"));
    m.set("wsnet.overlap_us", per_query("wsnet.overlap") * 1e3);
    m.set("accel.install_ms", tr.mean_ms("accel.install"));
    m.set("accel.install_self_ms", mean(&named("accel.install").map(self_ms).collect::<Vec<_>>()));
    let cold = named("core.serve").filter(|s| s.op == COLD_START_ID).map(ms);
    m.set("accel.cold_start_ms", mean(&cold.collect::<Vec<_>>()));
    m.set("accel.forward_ms", per_query("accel.forward"));
    m.set(
        "accel.forward_self_ms",
        named("accel.forward").filter(is_timed).map(self_ms).sum::<f64>() / n,
    );
    m.set("accel.input_synth_ms", per_query("accel.input_synth"));
    m.set("accel.timing_model_us", per_query("accel.timing_model") * 1e3);
    m.set("accel.pb_install_us", tr.mean_ms("accel.pb_install") * 1e3);
    // Per staged stack built (the switch builds one per pass).
    m.set(
        "accel.installs",
        ratio(tr.count("accel.install") as f64, tr.count("wsnet.zoo_load") as f64),
    );
    m.set("accel.packed_subnets", packed as f64);
    m.set("accel.arena_mb", arena_mb);
    m.set("accel.sim_pb_hit_ratio", ratio(log.exact.hit_ratio_sum, log.exact.served as f64));
    m.set("sched.decide_us", per_query("sched.decide") * 1e3);
    m.set("sched.table_build_ms", tr.mean_ms("sched.table_build"));
    m.set("sched.cache_updates", log.exact.cache_updates as f64);
    m.set("core.engine_build_ms", tr.mean_ms("core.engine_build"));
    m.set("core.serve_self_ms", named("core.serve").filter(is_timed).map(self_ms).sum::<f64>() / n);
    trace_figures(&mut m, &reference, &log);

    let name = workload.name();
    Ok(Report {
        attempted: reference.attempted + log.attempted,
        failed: reference.failed + log.failed,
        metrics: m.0,
        notes: vec![
            ("reference_op_samples", reference.ops.len().to_string()),
            ("traced_op_samples", log.ops.len().to_string()),
            ("spans", tr.spans().len().to_string()),
        ],
        files: vec![
            (format!("{name}.trace.jsonl"), tr.to_jsonl()),
            (format!("{name}.steps.json"), steps_json(&staged)),
        ],
    })
}

/// `<workload>.steps.json`: per SubNet, per `Plan` step — kind, MACs,
/// computed bytes, replayed ms (conv steps) — and the five slowest steps.
/// What the conv steps leave of the forward is `non_conv_self_ms`.
fn steps_json(staged: &Staged) -> String {
    let null_or = |v: Option<String>| v.unwrap_or_else(|| "null".into());
    let mut out = String::from(
        "{\n  \"note\": \"macs and bytes are computed from tensor sizes; ms is the median of 3 \
         replays of the step's kernel on the installed operands; the other step kinds have no \
         public entry point and are covered by non_conv_self_ms\",\n  \"subnets\": [\n",
    );
    let profiles = staged.step_profiles();
    for (i, p) in profiles.iter().enumerate() {
        let ms = |ns: u64| ns as f64 / 1e6;
        let conv_ms: f64 = p.steps.iter().filter_map(|s| s.ns).map(ms).sum();
        let mut ranked: Vec<&StepProfile> = p.steps.iter().filter(|s| s.ns.is_some()).collect();
        ranked.sort_by_key(|s| std::cmp::Reverse(s.ns));
        let step_json = |s: &StepProfile, sizes: bool| {
            let sizes = if sizes {
                format!("\"macs\": {}, \"bytes\": {}, ", s.macs, s.bytes)
            } else {
                String::new()
            };
            format!(
                "{{\"step\": {}, \"kind\": \"{}\", \"layer\": {}, {sizes}\"ms\": {}}}",
                s.index,
                s.kind,
                null_or(s.layer.map(|l| l.to_string())),
                null_or(s.ns.map(|ns| ms(ns).to_string()))
            )
        };
        let top5: Vec<String> = ranked.iter().take(5).map(|s| step_json(s, false)).collect();
        let steps: Vec<String> =
            p.steps.iter().map(|s| format!("      {}", step_json(s, true))).collect();
        writeln!(
            out,
            "    {{\"subnet\": \"{}\", \"forward_ms\": {}, \"conv_ms\": {conv_ms}, \
             \"non_conv_self_ms\": {}, \"top5\": [{}],\n     \"steps\": [\n{}\n    ]}}{}",
            p.subnet,
            p.forward_ms,
            (p.forward_ms - conv_ms).max(0.0),
            top5.join(", "),
            steps.join(",\n"),
            if i + 1 < profiles.len() { "," } else { "" }
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------- pool_sim

/// Tracing state of a `pool_sim` phase: the spans, and per op what was
/// replayed after it.
type PoolTrace = Option<(Tracer, Vec<PoolReplay>)>;

/// Simulated queries op `i` offers (see [`POOL_QUERIES`]).
fn pool_queries(i: u64, cfg: &RunConfig) -> usize {
    let base = if cfg.smoke { 100 } else { POOL_QUERIES };
    base * (4 + (i % POOL_PRESETS.len() as u64) as usize) / 4
}

/// Op `i`: preset `i % 5` under seed `seed + i`. Returns the outcome and
/// the op's wall time in ms.
fn pool_one(
    i: u64,
    cfg: &RunConfig,
    accuracies: &[f64],
    tr: &mut PoolTrace,
) -> Result<(PoolOutcome, f64), String> {
    let queries = pool_queries(i, cfg);
    let preset = POOL_PRESETS[(i % POOL_PRESETS.len() as u64) as usize];
    let opts = pool_options(queries, cfg.seed.wrapping_add(i));
    let (outcome, ms) = match tr {
        None => {
            let t = Instant::now();
            let outcome = pool_op(preset, &opts, accuracies)?;
            (outcome, ms_since(t))
        }
        Some((tr, replays)) => {
            let root = tr.spans().len();
            let (outcome, replay) = pool_op_staged(preset, &opts, accuracies, tr, i)?;
            replays.push(replay);
            (outcome, tr.span(root).dur_ns() as f64 / 1e6)
        }
    };
    if outcome.served + outcome.dropped == queries {
        Ok((outcome, ms))
    } else {
        Err(format!("op {i}: served + dropped != {queries} offered"))
    }
}

/// One untimed round: one op per preset.
fn pool_untimed_round(cfg: &RunConfig, accuracies: &[f64]) -> Result<(), String> {
    (0..POOL_PRESETS.len() as u64)
        .try_for_each(|i| pool_one(i, cfg, accuracies, &mut None).map(|_| ()))
}

#[derive(Default)]
struct PoolLog {
    log: OpLog,
    /// What each completed op returned, in order.
    outcomes: Vec<PoolOutcome>,
}

impl PoolLog {
    /// Records op `i`, which offered `queries` simulated queries.
    fn record(&mut self, i: u64, queries: usize, result: Result<(PoolOutcome, f64), String>) {
        let log = &mut self.log;
        let round = POOL_PRESETS.len() as u64;
        let exact = i < EXACT_ROUNDS as u64 * round;
        log.attempted += 1;
        let Ok((o, ms)) = result else {
            // A failed op served nobody: every query it offered is a violation.
            log.failed += 1;
            if exact {
                log.exact.offered += queries as u64;
                log.exact.violations += queries as u64;
            }
            return;
        };
        // One stratum per preset.
        log.ops.push(((i % round) as usize, ms));
        log.queries += o.offered as u64;
        if exact {
            let x = &mut log.exact;
            x.offered += o.offered as u64;
            x.violations += o.violations as u64;
            x.served += o.served as u64;
            x.latency_sum += o.latency_ms_sum;
            x.accuracy_sum += o.accuracy_sum;
            x.digest.push(o.digest);
        }
        self.outcomes.push(o);
    }
}

/// Timed rounds (one op per preset) for `seconds`. With a tracer every op
/// runs twice, `run_scenario` first and then re-enacted; returns the log of
/// each.
fn pool_phase(
    cfg: &RunConfig,
    accuracies: &[f64],
    tr: &mut PoolTrace,
) -> Result<(PoolLog, PoolLog), String> {
    let (mut real, mut traced) = (PoolLog::default(), PoolLog::default());
    let end = deadline(cfg.seconds);
    let mut i = 0u64;
    let round = POOL_PRESETS.len() as u64;
    while i < EXACT_ROUNDS as u64 * round || i % round != 0 || Instant::now() < end {
        real.record(i, pool_queries(i, cfg), pool_one(i, cfg, accuracies, &mut None));
        if tr.is_some() {
            traced.record(i, pool_queries(i, cfg), pool_one(i, cfg, accuracies, tr));
        }
        i += 1;
    }
    check_ranks(POOL_PRESETS.len(), (i / round) as usize)?;
    Ok((real, traced))
}

fn pool_sim(cfg: &RunConfig) -> Result<Report, String> {
    let accuracies = pool_row_accuracies();
    // Page-warm: one untimed op per preset.
    pool_untimed_round(cfg, &accuracies)?;

    if !cfg.trace {
        // An op builds its own workload, table and engine, so there is no
        // state to set up. Set-up is one more untimed round: whatever a
        // later change makes process-wide and lazy lands here.
        let mut setups = Vec::new();
        for _ in 0..SETUPS {
            let t = Instant::now();
            pool_untimed_round(cfg, &accuracies)?;
            setups.push(t.elapsed().as_secs_f64());
        }
        let (PoolLog { mut log, outcomes }, _) = pool_phase(cfg, &accuracies, &mut None)?;
        // A seeded simulation repeats exactly: op 0 again, equal outcome.
        log.attempted += 1;
        let again = pool_one(0, cfg, &accuracies, &mut None).ok().map(|(o, _)| o);
        log.failed += u64::from(again.as_ref() != outcomes.first());
        return Ok(Report {
            attempted: log.attempted,
            failed: log.failed,
            metrics: log.end_to_end(&setups)?,
            notes: vec![
                ("sim_digest", format!("{:#018x}", log.exact.digest.0)),
                ("op_samples", log.ops.len().to_string()),
                ("setup_samples", setups.len().to_string()),
            ],
            files: Vec::new(),
        });
    }

    let mut traced = Some((Tracer::new(), Vec::new()));
    let (reference, PoolLog { mut log, outcomes }) = pool_phase(cfg, &accuracies, &mut traced)?;
    let (tr, replays) = traced.expect("the tracer was created above");
    // The re-enactment must reproduce what `run_scenario` produced, op by op.
    log.attempted += 1;
    log.failed += u64::from(outcomes != reference.outcomes);

    // Host times are set against every op; simulated statistics and counts
    // are those of the exact rounds.
    let all = |f: &dyn Fn(&PoolOutcome) -> f64| outcomes.iter().map(f).sum::<f64>();
    let exact = &outcomes[..outcomes.len().min(EXACT_ROUNDS * POOL_PRESETS.len())];
    let sum = |f: &dyn Fn(&PoolOutcome) -> f64| exact.iter().map(f).sum::<f64>();
    let ops = exact.len().max(1) as f64;
    let (offered, served) = (sum(&|o| o.offered as f64), sum(&|o| o.served as f64));
    let batches = sum(&|o| o.batches as f64);
    let decide_us = mean(&replays.iter().map(|r| r.decide_us).collect::<Vec<_>>());
    let timing_us = mean(&replays.iter().map(|r| r.timing_model_us).collect::<Vec<_>>());
    let sim_us = ratio(tr.total_ms("core.serve_timed") * 1e3, all(&|o| o.offered as f64));
    let mut m = PerLayer::zeros();
    m.set("wsnet.zoo_load_ms", tr.mean_ms("wsnet.zoo_load"));
    m.set("accel.timing_model_us", timing_us);
    m.set("sched.decide_us", decide_us);
    m.set("sched.table_build_ms", tr.mean_ms("sched.table_build"));
    m.set("sched.degrades", sum(&|o| o.degrades as f64));
    m.set("sched.upgrades", sum(&|o| o.upgrades as f64));
    m.set("sched.shaped_frac", ratio(sum(&|o| o.shaped as f64), offered));
    m.set("core.engine_build_ms", tr.mean_ms("core.engine_build"));
    m.set(
        "core.serve_self_ms",
        tr.total_self_ms("core.run_scenario") / outcomes.len().max(1) as f64,
    );
    m.set("core.scenario_build_ms", tr.mean_ms("core.scenario_build"));
    m.set("core.serve_timed_ms", tr.mean_ms("core.serve_timed"));
    m.set("core.summary_ms", tr.mean_ms("core.summary"));
    m.set("core.sim_us_per_query", sim_us);
    m.set("core.sim_self_us_per_query", sim_us - decide_us - timing_us * ratio(batches, offered));
    m.set("core.queue_wait_sim_ms_mean", ratio(sum(&|o| o.queue_wait_ms_sum), served));
    m.set("core.service_sim_ms_mean", ratio(sum(&|o| o.service_ms_sum), served));
    m.set("core.queue_depth_mean", sum(&|o| o.queue_depth_mean) / ops);
    m.set("core.batch_size_mean", ratio(served, batches));
    m.set("core.dropped_frac", ratio(sum(&|o| o.dropped as f64), offered));
    m.set("core.retries", sum(&|o| o.retries as f64));
    m.set("core.hedges_won_frac", ratio(sum(&|o| o.hedges_won as f64), sum(&|o| o.hedges as f64)));
    m.set("core.cache_installs", sum(&|o| o.cache_installs as f64));
    m.set("core.swap_sim_ms", sum(&|o| o.swap_ms) / ops);
    trace_figures(&mut m, &reference.log, &log);
    Ok(Report {
        attempted: reference.log.attempted + log.attempted,
        failed: reference.log.failed + log.failed,
        metrics: m.0,
        notes: vec![
            ("reference_op_samples", reference.log.ops.len().to_string()),
            ("traced_op_samples", log.ops.len().to_string()),
            ("spans", tr.spans().len().to_string()),
        ],
        files: vec![
            ("pool_sim.trace.jsonl".to_string(), tr.to_jsonl()),
            (
                "pool_sim.steps.json".to_string(),
                "{\n  \"note\": \"pool_sim runs the analytical backend: no Plan is executed\",\n  \
                 \"subnets\": []\n}\n"
                    .to_string(),
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    /// Every workload, both modes, on the toy zoo: all checks pass, every
    /// metric of the mode is reported, end-to-end metrics are never 0.
    #[test]
    fn smoke_runs_report_every_metric_and_fail_no_check() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let cfg = RunConfig { seed: 3, seconds: 0.05, trace, smoke: true };
                let report = run(workload, &cfg).unwrap();
                let name = workload.name();
                assert_eq!(report.failed, 0, "{name} trace={trace}");
                assert!(report.attempted > 0);
                let expected: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                let got: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
                assert_eq!(got, expected, "{name} trace={trace}");
                for (metric, v) in &report.metrics {
                    assert!(v.is_finite() && (trace || *v > 0.0), "{name} {metric} = {v}");
                }
                assert_eq!(report.files.len(), if trace { 2 } else { 0 });
                assert!(report.files.iter().all(|(_, text)| !text.is_empty()));
            }
        }
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_stream() {
        let digest = |seed| {
            let cfg = RunConfig { seed, seconds: 0.01, trace: false, smoke: true };
            run(Workload::Resnet50Replay, &cfg).unwrap().notes[0].1.clone()
        };
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
    }

    /// Simulated metrics, counts and digests cover the exact rounds: a run
    /// that got through more rounds reports the same.
    #[test]
    fn exact_metrics_do_not_depend_on_run_length() {
        use crate::metrics::{find, Kind};
        for workload in Workload::ALL {
            for trace in [false, true] {
                let report = |seconds| {
                    let cfg = RunConfig { seed: 8, seconds, trace, smoke: true };
                    run(workload, &cfg).unwrap()
                };
                // Long enough to outlast the exact rounds on the toy zoo.
                let long = if workload == Workload::PoolSim { 1.5 } else { 0.5 };
                let (short, long) = (report(0.001), report(long));
                assert!(long.attempted > short.attempted, "{}", workload.name());
                let exact = |r: &Report| -> Vec<(&str, f64)> {
                    let kept =
                        r.metrics.iter().filter(|(n, _)| find(n).unwrap().kind != Kind::Host);
                    kept.copied().collect()
                };
                assert_eq!(exact(&short), exact(&long), "{} trace={trace}", workload.name());
                assert!(!exact(&short).is_empty());
                if !trace {
                    assert_eq!(short.notes[0], long.notes[0], "digest of {}", workload.name());
                }
            }
        }
    }

    #[test]
    fn strata_are_cut_to_an_odd_count() {
        let rows: Vec<Row> =
            (0..6).map(|row| Row { row, name: format!("S{row}"), accuracy: row as f64 }).collect();
        assert_eq!(strata(&rows, 1).len(), 5);
        assert_eq!(strata(&rows, 0).len(), 5);
        assert_eq!(strata(&rows, 0)[0].row, 1);
        assert_eq!(strata(&rows[..1], 0).len(), 1);
    }
}
