//! Every binding from the benchmark to the system under test lives here.
//!
//! The rest of the harness sees only the types this file defines or
//! re-exports, so when the datapath is collapsed (ROADMAP §1) the
//! benchmark is re-pointed by editing this one file. The bound symbols are
//! listed in `benchmark/README.md`; all of them are `pub` entry points of
//! `crates/*`.
//!
//! Two ways of running one served query are bound:
//!
//! * [`Sut::serve`] — `Engine::serve`, the way a user drives the stack.
//!   End-to-end metrics only ever come from this path.
//! * [`Staged::serve`] — the same query re-enacted stage by stage through
//!   the layers' public functions (it mirrors `SushiStack::serve` and
//!   `Functional::execute_batch`), with a span around each stage. The
//!   traced run uses it; a test below pins that it returns what
//!   `Engine::serve` returns.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sushi_accel::backend::Functional;
use sushi_accel::config::zcu104;
use sushi_accel::dpe::DpeArray;
use sushi_accel::exec::Accelerator;
use sushi_accel::functional::{act_quant, forward_cached, CachedLayer, FusedLayer, SubgraphCache};
use sushi_core::engine::{BackendKind, Engine, EngineBuilder, ModelZoo};
use sushi_core::experiments::common::{mobv3_workload, ExpOptions};
use sushi_core::serving::scenario::{build_scenario, run_scenario};
use sushi_core::serving::sim::SimResult;
use sushi_core::variants::build_table;
use sushi_ir::{Plan, Step};
use sushi_sched::{CacheSelection, Policy, Scheduler};
use sushi_tensor::ops::conv::conv2d_i8_fused;
use sushi_tensor::shape::conv_out_dim;
use sushi_tensor::{Arena, DetRng, KernelPolicy, PackLayout, PackedConv2d, Shape4, Tensor};
use sushi_wsnet::encoding::overlap_ratio;
use sushi_wsnet::{ir_build, zoo, SubGraph, SubNet, SuperNet};

use crate::stats::median;
use crate::trace::Tracer;

pub use sushi_core::serving::scenario::ServePreset;
pub use sushi_sched::Query;

// `EngineBuilder`'s defaults, restated because the staged path has to
// assemble the same parts by hand. The fidelity test below fails if they drift.
const CANDIDATES: usize = 16;
const TABLE_SEED: u64 = 0xC0FFEE;
const FUNCTIONAL_SEED: u64 = 42;
const DPE: (usize, usize) = (4, 4);

/// Which SuperNet and serving set a Functional workload runs on. The toy
/// families are the `--smoke` and test stand-ins for the paper zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zoo {
    MobileNetV3,
    ResNet50,
    ToyMobileNet,
    ToyResNet,
}

struct Loaded {
    net: Arc<SuperNet>,
    subnets: Vec<SubNet>,
    q_window: usize,
}

impl Zoo {
    /// The toy stand-in of the same family.
    pub fn smoke(self) -> Self {
        match self {
            Zoo::MobileNetV3 | Zoo::ToyMobileNet => Zoo::ToyMobileNet,
            Zoo::ResNet50 | Zoo::ToyResNet => Zoo::ToyResNet,
        }
    }

    fn load(self) -> Loaded {
        // A toy serving set is a ladder of nested SubNets, from the
        // smallest configuration to the largest: each holds the one before
        // it, so accuracy and latency rise together under any cache state
        // and a query's accuracy constraint picks exactly one row.
        let toy = |net: SuperNet| {
            let (mut c, max) = (net.min_config(), net.max_config());
            let mut ladder = vec![c.clone()];
            for stage in 0..c.depths.len() {
                c.depths[stage] = max.depths[stage];
                ladder.push(c.clone());
            }
            c.expands.clone_from(&max.expands);
            ladder.extend([c, max]);
            let mut subnets: Vec<SubNet> = ladder
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    net.materialize(format!("toy-{i}"), c).expect("ladder configs are valid")
                })
                .collect();
            // Channel rounding can make two rungs the same SubNet.
            subnets.dedup_by(|next, kept| next.accuracy <= kept.accuracy);
            // Q as `EngineBuilder::build` picks it for a custom workload.
            Loaded { net: Arc::new(net), subnets, q_window: 8 }
        };
        match self {
            Zoo::MobileNetV3 => {
                let net = Arc::new(zoo::mobilenet_v3_supernet());
                Loaded { subnets: zoo::paper_subnets(&net), net, q_window: 10 }
            }
            Zoo::ResNet50 => {
                let net = Arc::new(zoo::resnet50_supernet());
                Loaded { subnets: zoo::paper_subnets(&net), net, q_window: 8 }
            }
            Zoo::ToyMobileNet => toy(zoo::toy_mobilenet_supernet()),
            Zoo::ToyResNet => toy(zoo::toy_supernet()),
        }
    }

    fn builder(self) -> EngineBuilder {
        let b = EngineBuilder::new().backend(BackendKind::Functional);
        match self {
            Zoo::MobileNetV3 => b.zoo(ModelZoo::MobileNetV3),
            Zoo::ResNet50 => b.zoo(ModelZoo::ResNet50),
            Zoo::ToyMobileNet | Zoo::ToyResNet => {
                let l = self.load();
                b.workload(l.net, l.subnets)
            }
        }
    }
}

/// What one served query returned, in the harness's own terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    pub subnet_row: usize,
    pub served_accuracy: f64,
    pub served_latency_ms: f64,
    pub hit_ratio: f64,
    pub cache_updated: bool,
    pub prediction: Option<usize>,
}

/// One row of the serving set: what a stratum of the stream targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub row: usize,
    pub name: String,
    pub accuracy: f64,
}

/// The latency-constraint band streams are drawn from
/// (`Engine::constraint_space`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBand {
    pub lo_ms: f64,
    pub hi_ms: f64,
}

/// The serving engine as a user builds and drives it.
#[derive(Debug)]
pub struct Sut {
    engine: Engine,
}

impl Sut {
    /// `EngineBuilder::new().zoo(..).backend(Functional).fusion(..).build()`.
    pub fn build(zoo: Zoo, fusion: bool) -> Result<Self, String> {
        let engine = zoo.builder().fusion(fusion).build().map_err(|e| e.to_string())?;
        Ok(Self { engine })
    }

    pub fn rows(&self) -> Vec<Row> {
        let subnets = self.engine.subnets().iter().enumerate();
        subnets.map(|(row, s)| Row { row, name: s.name.clone(), accuracy: s.accuracy }).collect()
    }

    pub fn latency_band(&self) -> LatencyBand {
        let s = self.engine.constraint_space();
        LatencyBand { lo_ms: s.lat_lo, hi_ms: s.lat_hi }
    }

    /// `Engine::serve`.
    pub fn serve(&mut self, q: &Query) -> Result<Served, String> {
        let r = self.engine.serve(q).map_err(|e| e.to_string())?;
        Ok(Served {
            subnet_row: r.subnet_row,
            served_accuracy: r.served_accuracy,
            served_latency_ms: r.served_latency_ms,
            hit_ratio: r.hit_ratio,
            cache_updated: r.cache_updated,
            prediction: r.prediction,
        })
    }

    /// `Engine::memory_stats`: (arena MB, packed SubNets).
    pub fn memory(&self) -> (f64, usize) {
        self.engine
            .memory_stats()
            .map_or((0.0, 0), |m| (m.arena_reserved_bytes as f64 / 1e6, m.packed_subnets))
    }
}

/// One `Plan` step of one SubNet, profiled from outside: MACs and bytes
/// are computed from tensor sizes, `ns` is the replayed kernel time
/// (conv steps only; the other step kinds have no public entry point and
/// stay inside `accel.forward` self time).
#[derive(Debug, Clone, PartialEq)]
pub struct StepProfile {
    pub index: usize,
    pub kind: &'static str,
    pub layer: Option<usize>,
    pub macs: u64,
    pub bytes: u64,
    pub ns: Option<u64>,
}

/// What installing one SubNet did, beyond its spans.
#[derive(Debug, Clone, PartialEq)]
pub struct InstallProfile {
    pub subnet: String,
    pub rewrites_applied: usize,
    pub plan_steps: usize,
    pub conv_steps: usize,
    pub fused_conv_steps: usize,
    pub pack_bytes: u64,
}

/// The serving stack assembled from its parts, one public call per stage.
pub struct Staged {
    net: Arc<SuperNet>,
    subnets: Vec<SubNet>,
    sched: Scheduler,
    accel: Accelerator,
    /// Holds the weight store and synthesizes inputs; never executes.
    functional: Functional,
    dpe: DpeArray,
    caches: HashMap<String, SubgraphCache>,
    arena: Arena,
    profiles: Profiles,
}

/// What a staged stack learned by replaying: kept apart from the stack so
/// a workload that rebuilds its stack every pass can carry it over and
/// replay each SubNet's steps only once.
#[derive(Debug, Default)]
pub struct Profiles {
    steps: HashMap<String, Vec<StepProfile>>,
    /// Forward wall times per SubNet, for `steps.json`.
    forward_ms: HashMap<String, Vec<f64>>,
    installs: Vec<InstallProfile>,
}

/// The per-step profile of one served SubNet.
#[derive(Debug, Clone, PartialEq)]
pub struct SubnetSteps<'a> {
    pub subnet: &'a str,
    /// Median wall time of `forward_cached` under this SubNet.
    pub forward_ms: f64,
    pub steps: &'a [StepProfile],
}

impl Staged {
    /// What `EngineBuilder::build` does for a Functional engine, stage by
    /// stage: zoo load, latency-table build, weight synthesis.
    pub fn build(zoo: Zoo, tr: &mut Tracer, op: u64) -> Self {
        let l = tr.time(op, "wsnet.zoo_load", || zoo.load());
        let config = zcu104();
        let table = tr.time(op, "sched.table_build", || {
            build_table(&l.net, &l.subnets, &config, CANDIDATES, TABLE_SEED)
        });
        let dpe = DpeArray::new(DPE.0, DPE.1).with_policy(KernelPolicy::Auto);
        let functional =
            tr.time(op, "wsnet.weight_synth", || Functional::new(dpe, &l.net, FUNCTIONAL_SEED));
        Self {
            sched: Scheduler::new(
                table,
                Policy::StrictAccuracy,
                CacheSelection::MinDistanceToAvg,
                l.q_window,
            ),
            accel: Accelerator::new(config),
            net: l.net,
            subnets: l.subnets,
            functional,
            dpe,
            caches: HashMap::new(),
            arena: Arena::new(),
            profiles: Profiles::default(),
        }
    }

    /// Moves the profiles out, to hand them to the next stack.
    pub fn take_profiles(&mut self) -> Profiles {
        std::mem::take(&mut self.profiles)
    }

    pub fn set_profiles(&mut self, profiles: Profiles) {
        self.profiles = profiles;
    }

    /// One query through `SushiStack::serve`'s stages, a span around each.
    pub fn serve(&mut self, q: &Query, tr: &mut Tracer, op: u64) -> Result<Served, String> {
        let root = tr.enter(op, "core.serve");
        let decision = tr.time(op, "sched.decide", || self.sched.decide(q));
        let subnet = &self.subnets[decision.subnet_row];
        let hit_ratio = tr.time(op, "wsnet.overlap", || {
            let empty = SubGraph::empty(self.net.num_layers());
            overlap_ratio(&subnet.graph, self.accel.cached().unwrap_or(&empty))
        });
        let input = tr.time(op, "accel.input_synth", || self.functional.input_for(&self.net, q.id));
        let mut install_span = None;
        if !self.caches.contains_key(&subnet.name) {
            let id = tr.enter(op, "accel.install");
            let cache = SubgraphCache::build_fused(&self.net, self.functional.store(), subnet);
            tr.exit(id);
            self.caches.insert(subnet.name.clone(), cache.map_err(|e| e.to_string())?);
            install_span = Some(id);
        }
        let cache = &self.caches[&subnet.name];
        let forward_span = tr.enter(op, "accel.forward");
        let out = forward_cached(
            &self.dpe,
            &self.net,
            self.functional.store(),
            subnet,
            Some(cache),
            &mut self.arena,
            &input,
        );
        tr.exit(forward_span);
        let out = out.map_err(|e| e.to_string())?;
        let report =
            tr.time(op, "accel.timing_model", || self.accel.serve_batch(&self.net, subnet, 1));
        let mut cache_updated = false;
        if let Some(col) = decision.cache_update {
            let graph = self.sched.table().column(col).graph.clone();
            tr.time(op, "accel.pb_install", || {
                self.accel.install_cache(&self.net, graph);
            });
            cache_updated = true;
        }
        tr.exit(root);

        // Book-keeping and replays run after the op closed, so they never
        // count toward it.
        let row = decision.subnet_row;
        let forward_ms = tr.span(forward_span).dur_ns() as f64 / 1e6;
        self.profiles.forward_ms.entry(subnet.name.clone()).or_default().push(forward_ms);
        if let Some(span) = install_span {
            self.replay_install(row, tr, span)?;
        }
        if !self.profiles.steps.contains_key(&self.subnets[row].name) {
            let profile = self.profile_steps(row)?;
            self.profiles.steps.insert(self.subnets[row].name.clone(), profile);
        }
        for step in &self.profiles.steps[&self.subnets[row].name] {
            if let Some(ns) = step.ns {
                let name = if step.kind == "FusedConv" {
                    "tensor.conv_fused"
                } else {
                    "tensor.conv_direct"
                };
                tr.add_replayed(forward_span, name, ns);
            }
        }
        let subnet = &self.subnets[row];
        Ok(Served {
            subnet_row: row,
            served_accuracy: subnet.accuracy,
            served_latency_ms: report.total_latency_ms,
            hit_ratio,
            cache_updated,
            prediction: Some(out.prediction),
        })
    }

    /// Calls what `SubgraphCache::build_fused` calls, one piece at a time,
    /// and attaches the durations as children of the install span.
    fn replay_install(&mut self, row: usize, tr: &mut Tracer, span: usize) -> Result<(), String> {
        let subnet = &self.subnets[row];
        let cache = &self.caches[&subnet.name];
        let t = Instant::now();
        let mut graph = ir_build::build_ir(&self.net, subnet).map_err(|e| e.to_string())?;
        tr.add_replayed(span, "wsnet.build_ir", t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let log = sushi_ir::normalize(&mut graph).map_err(|e| e.to_string())?;
        tr.add_replayed(span, "ir.normalize", t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let plan = Plan::lower(&graph).map_err(|e| e.to_string())?;
        tr.add_replayed(span, "ir.lower", t.elapsed().as_nanos() as u64);
        if Some(&plan) != cache.plan() {
            return Err(format!("replayed plan of {} differs from the installed one", subnet.name));
        }
        let t = Instant::now();
        let mut pack_bytes = 0u64;
        for idx in 0..self.net.num_layers() {
            let Some(cl) = cache.layer(idx) else { continue };
            for (present, layout) in
                [(cl.packed.is_some(), PackLayout::Panel), (cl.fused.is_some(), PackLayout::KPair)]
            {
                if present {
                    let p = PackedConv2d::pack_with_layout(&cl.weights, cl.w_q, &cl.params, layout)
                        .map_err(|e| e.to_string())?;
                    pack_bytes += p.packed_bytes() as u64;
                }
            }
        }
        tr.add_replayed(span, "tensor.pack", t.elapsed().as_nanos() as u64);
        let conv_steps = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Conv { .. } | Step::FusedConv { .. }))
            .count();
        self.profiles.installs.push(InstallProfile {
            subnet: subnet.name.clone(),
            rewrites_applied: log.applied.len(),
            plan_steps: plan.steps.len(),
            conv_steps,
            fused_conv_steps: plan.fused_conv_count(),
            pack_bytes,
        });
        Ok(())
    }

    /// Walks the installed plan of SubNet `row`: shapes are propagated
    /// through the slots, MACs and bytes computed from them, and each conv
    /// step's kernel is replayed on a tensor of its input shape.
    fn profile_steps(&mut self, row: usize) -> Result<Vec<StepProfile>, String> {
        let subnet = &self.subnets[row];
        let cache = &self.caches[&subnet.name];
        let plan = cache.plan().ok_or("installed cache carries no plan")?;
        let hw = self.net.input_hw;
        let mut shapes: Vec<Option<Shape4>> = vec![None; plan.slots];
        shapes[plan.input_slot] = Some(Shape4::new(1, 3, hw, hw));
        let mut rng = DetRng::new(0x57E9);
        let mut out = Vec::with_capacity(plan.steps.len());
        for (index, step) in plan.steps.iter().enumerate() {
            let w = walk_step(step, &shapes, cache)
                .ok_or_else(|| format!("plan of {} does not walk at step {index}", subnet.name))?;
            shapes[w.dst] = Some(w.output);
            let ns = match (w.kind, w.layer.and_then(|l| cache.layer(l))) {
                ("Conv" | "FusedConv", Some(cl)) => {
                    let fused = cl.fused.as_ref().filter(|_| w.kind == "FusedConv");
                    Some(replay_conv(&self.dpe, &mut self.arena, cl, fused, w.input, &mut rng)?)
                }
                _ => None,
            };
            let bytes = (w.input.volume() + w.output.volume()) as u64 + w.operand_bytes;
            out.push(StepProfile { index, kind: w.kind, layer: w.layer, macs: w.macs, bytes, ns });
        }
        Ok(out)
    }

    /// Per-step profiles of every SubNet served so far, in row order.
    pub fn step_profiles(&self) -> Vec<SubnetSteps<'_>> {
        let served = self.subnets.iter().filter_map(|sn| {
            let steps = self.profiles.steps.get(&sn.name)?;
            let forward_ms = median(self.profiles.forward_ms.get(&sn.name)?);
            Some(SubnetSteps { subnet: &sn.name, forward_ms, steps })
        });
        served.collect()
    }

    pub fn steps_of(&self, row: usize) -> &[StepProfile] {
        self.profiles.steps.get(&self.subnets[row].name).map_or(&[], Vec::as_slice)
    }

    pub fn installs(&self) -> &[InstallProfile] {
        &self.profiles.installs
    }
}

/// One plan step with its shapes worked out.
struct WalkedStep {
    kind: &'static str,
    layer: Option<usize>,
    input: Shape4,
    output: Shape4,
    dst: usize,
    macs: u64,
    /// Bytes read beside the input: weights and bias, or a second operand.
    operand_bytes: u64,
}

/// Works out what `step` reads and writes, given the shapes of the slots
/// filled so far. `None` when the plan reads an empty slot, names an
/// inactive layer or shrinks a tensor to nothing.
fn walk_step(step: &Step, shapes: &[Option<Shape4>], cache: &SubgraphCache) -> Option<WalkedStep> {
    let at = |slot: usize| shapes.get(slot).copied().flatten();
    let plain = |kind, src: usize, dst, output: fn(Shape4) -> Shape4| {
        let input = at(src)?;
        let output = output(input);
        Some(WalkedStep { kind, layer: None, input, output, dst, macs: 0, operand_bytes: 0 })
    };
    match *step {
        Step::Conv { layer, src, dst, .. } | Step::FusedConv { layer, src, dst, .. } => {
            let (input, cl) = (at(src)?, cache.layer(layer)?);
            let w = cl.weights.shape();
            let dim = |i, k| conv_out_dim(i, k, cl.params.stride, cl.params.padding);
            let output = Shape4::new(input.n, w.n, dim(input.h, w.h)?, dim(input.w, w.w)?);
            Some(WalkedStep {
                kind: if matches!(step, Step::Conv { .. }) { "Conv" } else { "FusedConv" },
                layer: Some(layer),
                input,
                output,
                dst,
                macs: (output.volume() * w.c * w.h * w.w) as u64,
                operand_bytes: (w.volume() + 4 * w.n) as u64,
            })
        }
        Step::Act { src, dst, .. } => plain("Act", src, dst, |x| x),
        Step::Add { a, b, dst, .. } => {
            let operand_bytes = at(b)?.volume() as u64;
            Some(WalkedStep { operand_bytes, ..plain("Add", a, dst, |x| x)? })
        }
        Step::SqueezeExcite { reduce, expand, src, dst } => {
            // Two 1x1 convs on the pooled vector: one MAC per weight.
            let weights = |l| cache.layer(l).map_or(0, |cl| cl.weights.shape().volume() as u64);
            let macs = weights(reduce) + weights(expand);
            let walked = plain("SqueezeExcite", src, dst, |x| x)?;
            Some(WalkedStep { layer: Some(reduce), macs, operand_bytes: macs, ..walked })
        }
        Step::MaxPool { window, stride, padding, src, dst } => {
            let input = at(src)?;
            let dim = |i| conv_out_dim(i, window, stride, padding);
            let output = Shape4::new(input.n, input.c, dim(input.h)?, dim(input.w)?);
            Some(WalkedStep { output, ..plain("MaxPool", src, dst, |x| x)? })
        }
        Step::GlobalAvgPool { src, dst } => {
            plain("GlobalAvgPool", src, dst, |x| Shape4::new(x.n, x.c, 1, 1))
        }
    }
}

/// Calls one conv step's kernel three times on a seeded tensor of its
/// input shape with the cache's own operands; returns the median in ns.
fn replay_conv(
    dpe: &DpeArray,
    arena: &mut Arena,
    cl: &CachedLayer,
    fused: Option<&FusedLayer>,
    input: Shape4,
    rng: &mut DetRng,
) -> Result<u64, String> {
    let data = (0..input.volume()).map(|_| rng.next_i8()).collect();
    let x = Tensor::from_vec(input, data).map_err(|e| e.to_string())?;
    let q = act_quant();
    let mut samples = [0.0; 3];
    for sample in &mut samples {
        let t = Instant::now();
        let y = match fused {
            Some(fl) => conv2d_i8_fused(&x, q, &fl.packed, &fl.epilogue, &cl.params, arena),
            None => {
                let (packed, bias) = (cl.packed.as_ref(), Some(cl.bias.as_slice()));
                dpe.conv2d_i8_in(arena, &x, q, &cl.weights, cl.w_q, packed, bias, q, &cl.params)
            }
        };
        *sample = t.elapsed().as_nanos() as f64;
        std::hint::black_box(y.map_err(|e| e.to_string())?);
    }
    Ok(median(&samples) as u64)
}

// ---------------------------------------------------------------- pool_sim

/// Options of one `pool_sim` op: `ExpOptions::default()` with the stream
/// length and seed set.
pub fn pool_options(queries: usize, seed: u64) -> ExpOptions {
    let mut o = ExpOptions::default();
    o.queries = queries;
    o.seed = seed;
    o
}

/// What one simulated serving run produced, reduced to what the metrics
/// and checks need. Two equal runs give equal `PoolOutcome`s.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolOutcome {
    pub offered: usize,
    pub served: usize,
    pub dropped: usize,
    pub violations: usize,
    pub latency_ms_sum: f64,
    pub accuracy_sum: f64,
    pub queue_wait_ms_sum: f64,
    pub service_ms_sum: f64,
    pub queue_depth_mean: f64,
    pub batches: usize,
    pub cache_installs: usize,
    pub swap_ms: f64,
    pub degrades: usize,
    pub upgrades: usize,
    pub shaped: usize,
    pub retries: usize,
    pub hedges: usize,
    pub hedges_won: usize,
    /// FNV-1a over every served query's (id, row, completion bits).
    pub digest: u64,
}

/// Accuracy of each serving-set row `pool_sim` serves from.
pub fn pool_row_accuracies() -> Vec<f64> {
    mobv3_workload().picks.iter().map(|s| s.accuracy).collect()
}

fn outcome(r: &SimResult, accuracies: &[f64]) -> PoolOutcome {
    let mut digest = crate::stats::Fnv1a::default();
    let mut o = PoolOutcome {
        offered: r.served.len() + r.dropped.len(),
        served: r.served.len(),
        dropped: r.dropped.len(),
        violations: r.dropped.len(),
        latency_ms_sum: 0.0,
        accuracy_sum: 0.0,
        queue_wait_ms_sum: 0.0,
        service_ms_sum: 0.0,
        queue_depth_mean: r.mean_queue_depth,
        batches: r.batches,
        cache_installs: r.cache_installs,
        swap_ms: r.swap_ms,
        degrades: r.adaptation.as_ref().map_or(0, |a| a.degrades),
        upgrades: r.adaptation.as_ref().map_or(0, |a| a.upgrades),
        shaped: r.adaptation.as_ref().map_or(0, |a| a.shaped),
        retries: r.faults.as_ref().map_or(0, |f| f.retries),
        hedges: r.faults.as_ref().map_or(0, |f| f.hedges),
        hedges_won: r.faults.as_ref().map_or(0, |f| f.hedges_won),
        digest: 0,
    };
    for s in &r.served {
        o.violations += usize::from(!s.met_slo());
        o.latency_ms_sum += s.latency_ms();
        o.accuracy_sum += accuracies[s.subnet_row];
        o.queue_wait_ms_sum += s.start_ms - s.arrival_ms;
        o.service_ms_sum += s.completion_ms - s.start_ms;
        digest.push(s.query.id);
        digest.push(s.subnet_row as u64);
        digest.push(s.completion_ms.to_bits());
    }
    o.digest = digest.0;
    o
}

/// `run_scenario(preset, opts)`: one untraced `pool_sim` op.
pub fn pool_op(
    preset: ServePreset,
    opts: &ExpOptions,
    accuracies: &[f64],
) -> Result<PoolOutcome, String> {
    let r = run_scenario(preset, opts).map_err(|e| e.to_string())?;
    Ok(outcome(&r, accuracies))
}

/// Host-time figures of one traced `pool_sim` op that are replayed after
/// it, not spans inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolReplay {
    pub decide_us: f64,
    pub timing_model_us: f64,
}

/// `run_scenario` re-enacted through the public pieces it is made of, a
/// span around each; then the scheduler and the timing model replayed on
/// the same stream for their per-call cost.
pub fn pool_op_staged(
    preset: ServePreset,
    opts: &ExpOptions,
    accuracies: &[f64],
    tr: &mut Tracer,
    op: u64,
) -> Result<(PoolOutcome, PoolReplay), String> {
    let root = tr.enter(op, "core.run_scenario");
    let workload = tr.time(op, "wsnet.zoo_load", mobv3_workload);
    let scenario = tr.time(op, "core.scenario_build", || build_scenario(preset, opts));
    let build = tr.enter(op, "core.engine_build");
    let engine = EngineBuilder::new()
        .workload(Arc::clone(&workload.net), workload.picks.clone())
        .q_window(scenario.q_window)
        .candidates(opts.candidates)
        .seed(opts.seed)
        .backend(opts.backend)
        .kernel_policy(opts.kernel_policy)
        .fusion(opts.fusion)
        .sim_config(scenario.sim)
        .build();
    tr.exit(build);
    let mut engine = engine.map_err(|e| e.to_string())?;
    let result = tr.time(op, "core.serve_timed", || engine.serve_timed(&scenario.stream));
    tr.exit(root);
    let result = result.map_err(|e| e.to_string())?;
    std::hint::black_box(tr.time(op, "core.summary", || result.summary()));

    let t = Instant::now();
    let table = build_table(&workload.net, &workload.picks, &zcu104(), opts.candidates, opts.seed);
    tr.add_replayed(build, "sched.table_build", t.elapsed().as_nanos() as u64);
    let mut sched = Scheduler::new(
        table,
        Policy::StrictAccuracy,
        CacheSelection::MinDistanceToAvg,
        scenario.q_window,
    );
    let t = Instant::now();
    for tq in &scenario.stream {
        std::hint::black_box(sched.decide(&tq.query));
    }
    let decide_us = t.elapsed().as_secs_f64() * 1e6 / scenario.stream.len().max(1) as f64;
    // One timing-model call per committed batch, on the rows and batch
    // sizes the run actually served.
    let mut accel = Accelerator::new(zcu104());
    let stride = (result.served.len() / result.batches.max(1)).max(1);
    let t = Instant::now();
    let mut calls = 0usize;
    for s in result.served.iter().step_by(stride) {
        let subnet = &workload.picks[s.subnet_row];
        std::hint::black_box(accel.serve_batch(&workload.net, subnet, s.batch_size));
        calls += 1;
    }
    let timing_model_us = t.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64;
    Ok((outcome(&result, accuracies), PoolReplay { decide_us, timing_model_us }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StratifiedStream;

    /// Re-enactment fidelity: stage by stage gives what `Engine::serve`
    /// gives — row, simulated latency, hit ratio, cache decision and
    /// prediction — and so pins the defaults restated above.
    #[test]
    fn staged_serve_returns_what_engine_serve_returns() {
        for zoo in [Zoo::ToyResNet, Zoo::ToyMobileNet] {
            let mut sut = Sut::build(zoo, true).unwrap();
            let mut tr = Tracer::new();
            let mut staged = Staged::build(zoo, &mut tr, 0);
            let mut stream = StratifiedStream::new(sut.rows(), sut.latency_band(), 9);
            let mut served = 0;
            while served < 50 {
                for (_, q) in stream.next_round() {
                    let real = sut.serve(&q).unwrap();
                    let reenacted = staged.serve(&q, &mut tr, q.id).unwrap();
                    assert_eq!(real, reenacted, "{zoo:?}, query {}", q.id);
                    assert!(real.prediction.is_some());
                    served += 1;
                }
            }
            // One install per SubNet, each with its four replayed children.
            assert_eq!(staged.installs().len(), sut.rows().len());
            assert_eq!(tr.count("accel.install"), sut.rows().len());
            assert_eq!(tr.count("tensor.pack"), sut.rows().len());
            assert_eq!(tr.count("core.serve"), served);
            assert!(staged.step_profiles().iter().all(|p| p.steps.iter().any(|s| s.ns.is_some())));
        }
    }

    #[test]
    fn toy_serving_sets_are_strictly_ordered_ladders() {
        for zoo in [Zoo::ToyResNet, Zoo::ToyMobileNet] {
            let rows = Sut::build(zoo, true).unwrap().rows();
            assert!(rows.len() >= 3, "{zoo:?} ladder collapsed to {} rungs", rows.len());
            assert!(rows.windows(2).all(|w| w[0].accuracy < w[1].accuracy));
        }
    }

    #[test]
    fn staged_scenario_reproduces_run_scenario() {
        let accuracies = pool_row_accuracies();
        for (i, preset) in [ServePreset::Burst, ServePreset::MultiTenant, ServePreset::Chaos]
            .into_iter()
            .enumerate()
        {
            let opts = pool_options(200, 77 + i as u64);
            let real = pool_op(preset, &opts, &accuracies).unwrap();
            let mut tr = Tracer::new();
            let (staged, replay) =
                pool_op_staged(preset, &opts, &accuracies, &mut tr, i as u64).unwrap();
            assert_eq!(real, staged, "{preset:?}");
            assert_eq!(real.served + real.dropped, 200);
            assert!(replay.decide_us > 0.0 && replay.timing_model_us > 0.0);
            assert_eq!(tr.count("core.serve_timed"), 1);
        }
    }
}
