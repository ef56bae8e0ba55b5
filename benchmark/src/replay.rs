//! The traced run's per-layer split. Nothing inside the program is
//! instrumented: after each timed call the benchmark replays, from
//! outside, the calls that call made into each layer's public functions
//! on shadow objects of its own, and records a span around every replay.
//! Replays are stand-ins for in-situ spans, not measurements of them.

use crate::inputs::{fine_tune_samples, LadderKind};
use reprune::nn::dataset::{render_scene, SCENE_CLASSES};
use reprune::nn::{ExecPlan, Network, Scratch};
use reprune::prune::{ladder_plans, weights_checksum, ReversiblePruner, SparsityLadder};
use reprune::runtime::TickRecord;
use reprune::scenario::weather_to_context;
use reprune::tensor::rng::Prng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Root span of one timed single-vehicle step.
pub const STEP: &str = "runtime.manager.step";
/// Root span of one timed fleet step.
pub const FLEET_STEP: &str = "runtime.executor.step_with_risks";
/// Root span of one crash drill: `recover` plus the first resumed step.
pub const RECOVER: &str = "runtime.recover.kill_to_resumed";
/// Root span of one timed set-up.
pub const SETUP: &str = "setup";
/// Replayed `set_level` that lowered the level.
pub const RESTORE: &str = "prune.restore";
/// Replayed `set_level` that raised the level.
pub const PRUNE: &str = "prune.prune";
/// Replayed `weights_checksum`.
pub const CHECKSUM: &str = "prune.checksum";
/// Replayed attach of the shadow pruner.
pub const ATTACH: &str = "prune.attach";
/// Replayed `attach_fine_tuned` inside a crash drill.
pub const ATTACH_FT: &str = "prune.attach_fine_tuned";
/// Replayed `predict_with`.
pub const PREDICT: &str = "nn.predict";
/// Replayed `DurableLog::read_all` of a frozen device.
pub const READ_ALL: &str = "platform.read_all";
/// Replayed from-scratch budget arbitration.
pub const PLAN_SCRATCH: &str = "runtime.planner.plan_budget_prevalidated";
/// Replayed incremental budget arbitration.
pub const PLAN_INCREMENTAL: &str = "runtime.planner.fleet_planner_plan";

/// One recorded span; `parent` 0 marks a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    id: u32,
    tick: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

impl Span {
    fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span store, written out once when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Records a span over `[start, end)` and returns its id.
    pub fn span(
        &mut self,
        tick: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            tick: tick as u32,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
        id
    }

    /// Times `f` and records it as a span.
    pub fn time<T>(
        &mut self,
        tick: usize,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.span(tick, name, start, Instant::now(), parent);
        out
    }

    /// Span durations in microseconds, grouped by span name.
    pub fn micros_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.micros());
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"tick\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.id, s.tick, s.name, s.start_ns, s.end_ns, s.parent
            )?;
        }
        out.flush()
    }
}

/// Work counters the replays accumulate.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// Level changes replayed.
    pub transitions: u64,
    /// Weights pruned plus restored by those changes.
    pub weights_touched: u64,
}

/// A shadow vehicle: a clone of the trained network with its own pruner
/// over the same ladder and the same defense settings, walked to every
/// level the real vehicle reports.
pub struct Shadow {
    net: Network,
    pruner: ReversiblePruner,
    plans: Vec<ExecPlan>,
    scratch: Scratch,
    frames: Prng,
    /// Work done so far.
    pub counts: ReplayCounts,
}

impl Shadow {
    /// Attaches a shadow to a clone of `net`, timing the attach as a
    /// [`ATTACH`] span under `parent`.
    ///
    /// # Errors
    ///
    /// Propagates attach errors.
    pub fn attach(
        net: &Network,
        ladder: SparsityLadder,
        kind: LadderKind,
        frame_seed: u64,
        tracer: &mut Tracer,
        parent: u32,
    ) -> reprune::prune::Result<Shadow> {
        let mut net = net.clone();
        let plans = ladder_plans(&net, &ladder)?;
        let samples = (kind == LadderKind::FineTuned).then(fine_tune_samples);
        let mut pruner = tracer.time(0, ATTACH, parent, || match &samples {
            Some(data) => ReversiblePruner::attach_fine_tuned(&mut net, ladder, data.samples()),
            None => ReversiblePruner::attach(&net, ladder),
        })?;
        // The runtime's FullChain defense: shadow copies for repair plus
        // verified pops (on by default).
        pruner.set_shadow_mode(true);
        pruner.set_verify_on_pop(true);
        Ok(Shadow {
            net,
            pruner,
            plans,
            scratch: Scratch::new(),
            frames: Prng::new(frame_seed),
            counts: ReplayCounts::default(),
        })
    }

    /// Replays one tick record: the level change, one classification of
    /// a frame rendered for the tick's weather at that level's plan, and
    /// one weights checksum.
    ///
    /// # Errors
    ///
    /// Propagates pruning or inference errors.
    pub fn replay(
        &mut self,
        rec: &TickRecord,
        tick: usize,
        parent: u32,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let from = self.pruner.current_level();
        if rec.level != from {
            let name = if rec.level < from { RESTORE } else { PRUNE };
            let (pruner, net) = (&mut self.pruner, &mut self.net);
            let tr = tracer
                .time(tick, name, parent, || pruner.set_level(net, rec.level))
                .map_err(|e| e.to_string())?;
            self.counts.transitions += 1;
            self.counts.weights_touched += (tr.weights_pruned + tr.weights_restored) as u64;
        }
        let label = self.frames.next_below(SCENE_CLASSES);
        let frame = render_scene(label, weather_to_context(rec.weather), &mut self.frames);
        let (net, plan, scratch) = (&self.net, self.plans.get(rec.level), &mut self.scratch);
        let pred = tracer.time(tick, PREDICT, parent, || {
            net.predict_with(&frame.input, plan, scratch)
        });
        black_box(pred.map_err(|e| e.to_string())?);
        black_box(tracer.time(tick, CHECKSUM, parent, || weights_checksum(net)));
        Ok(())
    }

    /// Buffer-growth events of the shadow's inference arena.
    pub fn scratch_alloc_events(&self) -> usize {
        self.scratch.allocation_events()
    }

    /// Segment-pool allocation events of the shadow pruner.
    pub fn pruner_alloc_events(&self) -> usize {
        self.pruner.allocation_events()
    }
}
