//! Drives one workload through the public API and turns what it saw into
//! metrics and checks.
//!
//! A run is a sequence of *passes*. Each pass sets the system up from
//! scratch (ladder build + attach, plus `FleetRuntime::new` on the
//! fleet), drives one seeded drive tick by tick in a closed loop (each
//! call starts when the previous one returns), then checks the outputs.
//! Pass `k` drives the `k`-th drive drawn from the run's seed, and passes
//! repeat until `--seconds` have elapsed. A faster program therefore
//! measures more drives of the same kind, never a different kind of
//! drive, and memory stays bounded by one pass.

use crate::heap;
use crate::inputs::{
    build_ladder, Inputs, LadderKind, Workload, DEFAULT_SEED, DT, FLEET_UTILITY, PINNED_DIGESTS,
};
use crate::replay::{self, Shadow, Tracer};
use crate::stats::{mean, median, percentile, proc_status_mib, supports, tail_percentile, Fnv};
use reprune::nn::dataset::SCENE_SIZE;
use reprune::nn::{Network, PrecisionMode};
use reprune::platform::profile::NetworkProfile;
use reprune::platform::{DurableLog, Joules};
use reprune::prune::{weights_checksum, ReversiblePruner, SparsityLadder};
use reprune::runtime::{
    plan_budget_prevalidated, FaultPlan, FleetPlanner, FleetRuntime, OperatingState,
    RuntimeManager, TickRecord,
};
use reprune::scenario::Tick;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups a full run times at least, so `setup_s` is a median.
const MIN_SETUPS: usize = 5;

/// Fewest restore ticks a full run accepts for `restore_tick_p50_us`.
const MIN_RESTORE_SAMPLES: usize = 20;

/// Risk-1.0 ticks a drive may take to come back to level 0 in `Normal`.
const MAX_DRAIN_TICKS: usize = 6_000;

const MIB: f64 = 1024.0 * 1024.0;

/// Command-line options of one workload run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to drive.
    pub workload: Workload,
    /// Load-generator seed.
    pub seed: u64,
    /// Seconds of passes to measure (whole passes; at least one).
    pub seconds: f64,
    /// Replay-trace the run and report per-layer metrics.
    pub trace: bool,
    /// Smoke-test sizes: one short pass.
    pub quick: bool,
    /// Where the traced run writes `spans-<workload>.jsonl`.
    pub spans_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: program calls plus output checks.
    pub attempted: u64,
    /// Calls that returned an error plus checks that failed.
    pub failed: u64,
    /// What failed (first few).
    pub failures: Vec<String>,
    /// Passes measured.
    pub passes: usize,
    /// Hash of the first pass's generated inputs.
    pub input_digest: u64,
    /// Hash of the first pass's records.
    pub records_digest: u64,
    /// End-to-end metrics (always computed).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// What the first pass's drive produced; identical in every run of
    /// a seed.
    pub outcomes: Vec<Metric>,
    /// Sample counts and other context for the report.
    pub notes: Vec<String>,
}

/// Counts operations and failed checks toward `op_error_ratio`.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Counts one call; an `Err` is a failure.
    fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one output check.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }
}

/// Wall-clock samples pooled over every pass.
#[derive(Debug, Default)]
struct Timings {
    setup_s: Vec<f64>,
    tick_us: Vec<f64>,
    restore_tick_us: Vec<f64>,
    recover_ms: Vec<f64>,
    /// Seconds spent inside timed program calls of the drive loops.
    busy_s: f64,
    member_ticks: u64,
    /// Member-ticks per busy second of each pass.
    pass_rates: Vec<f64>,
    /// Peak live heap (MiB) of each pass, set-up included.
    pass_heap_mib: Vec<f64>,
    /// Incremental-planner dirty-set occupancy after each replayed plan.
    dirty: Vec<f64>,
}

/// What one pass produced, deterministic per (seed, pass).
#[derive(Debug, Default, Clone)]
struct Pass {
    records_digest: u64,
    member_ticks: u64,
    level_ticks: Vec<u64>,
    restore_ticks: u64,
    violations: u64,
    correct: u64,
    energy_j: f64,
    dense_j: f64,
    silent_corruption: u64,
    degraded_ticks: u64,
    transitions: u64,
    faults_detected: u64,
    pops_verified: u64,
    repairs: u64,
    spill_bytes_appended: u64,
    spill_marks: u64,
    spill_stalled: u64,
    device_bytes: u64,
    unique_weight_bytes: u64,
    pool_size: usize,
    resume_lags: Vec<f64>,
    records_scanned: Vec<f64>,
    replay_transitions: u64,
    replay_weights_touched: u64,
    scratch_alloc_events: u64,
    pruner_alloc_events: u64,
}

impl Pass {
    fn note(&mut self, rec: &TickRecord, dense_j: f64) {
        self.member_ticks += 1;
        if self.level_ticks.len() <= rec.level {
            self.level_ticks.resize(rec.level + 1, 0);
        }
        self.level_ticks[rec.level] += 1;
        self.violations += u64::from(rec.violation);
        self.correct += u64::from(rec.correct);
        self.energy_j += rec.inference_energy.0 + rec.transition_energy.0;
        self.dense_j += dense_j;
        self.silent_corruption +=
            u64::from(rec.corrupt_inference && rec.op_state == OperatingState::Normal);
        self.degraded_ticks += u64::from(rec.op_state != OperatingState::Normal);
    }

    fn absorb_shadows(&mut self, shadows: &[Shadow]) {
        for s in shadows {
            self.replay_transitions += s.counts.transitions;
            self.replay_weights_touched += s.counts.weights_touched;
            self.scratch_alloc_events += s.scratch_alloc_events() as u64;
            self.pruner_alloc_events += s.pruner_alloc_events() as u64;
        }
    }

    fn absorb_manager(&mut self, mgr: &RuntimeManager) {
        self.transitions += mgr.transitions() as u64;
        self.faults_detected += mgr.faults_detected() as u64;
        let integrity = mgr.pruner_integrity();
        self.pops_verified += integrity.pops_verified;
        self.repairs += integrity.repairs;
        if let Some(s) = mgr.spill_stats() {
            self.spill_bytes_appended += s.bytes_appended;
            self.spill_marks += s.marks_written;
            self.spill_stalled += s.stalled_ticks;
        }
        self.device_bytes += mgr.spill_bytes().unwrap_or(0);
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Bytes of physically distinct weight storage in `(id, bytes)` pairs.
fn unique_bytes(storage: Vec<(usize, usize)>) -> u64 {
    let mut seen = std::collections::BTreeSet::new();
    storage
        .into_iter()
        .filter(|(id, _)| seen.insert(*id))
        .map(|(_, b)| b as u64)
        .sum()
}

/// A risk-1.0 copy of `last`, `k` control periods later.
fn drain_tick(last: &Tick, k: usize) -> Tick {
    Tick {
        t: last.t + k as f64 * DT,
        risk: 1.0,
        active_events: 0,
        ..*last
    }
}

/// Read-only state shared by every pass of a run.
struct Ctx<'a> {
    net: &'a Network,
    /// Checksum of the trained weights before any attach.
    base_checksum: u64,
}

impl Ctx<'_> {
    fn ladder(&self, inp: &Inputs, led: &mut Ledger) -> Option<SparsityLadder> {
        led.op("ladder build", build_ladder(inp.ladder_kind(), self.net))
    }

    /// Single-vehicle set-up as `setup_s` times it: ladder build plus
    /// attach. Returns the manager, the time, and a copy of the ladder
    /// when crash drills will need one (copied outside the timing).
    fn setup_single(
        &self,
        inp: &Inputs,
        led: &mut Ledger,
    ) -> Option<(RuntimeManager, Duration, Option<SparsityLadder>)> {
        let started = Instant::now();
        let ladder = self.ladder(inp, led)?;
        let built = started.elapsed();
        let spare = (!inp.drills.is_empty()).then(|| ladder.clone());
        let attach_at = Instant::now();
        let attached = RuntimeManager::attach(self.net.clone(), ladder, inp.config(0));
        let took = built + attach_at.elapsed();
        Some((led.op("attach", attached)?, took, spare))
    }

    /// Fleet set-up as `setup_s` times it: every member's ladder build
    /// and attach, then `FleetRuntime::new`.
    fn setup_fleet(&self, inp: &Inputs, led: &mut Ledger) -> Option<(FleetRuntime, Duration)> {
        let started = Instant::now();
        let mut members = Vec::with_capacity(inp.members());
        for i in 0..inp.members() {
            let ladder = self.ladder(inp, led)?;
            let mgr = led.op(
                "attach",
                RuntimeManager::attach(self.net.clone(), ladder, inp.config(i)),
            )?;
            members.push((format!("member-{i}"), mgr, FLEET_UTILITY.to_vec()));
        }
        let built = FleetRuntime::new(members);
        let took = started.elapsed();
        Some((led.op("fleet", built)?, took))
    }

    /// After a drive: no more faults, risk pinned at 1.0 until the
    /// ladder is back at level 0 in `Normal` — then the weights must be
    /// the pre-attach bits.
    fn drain_single(&self, inp: &Inputs, mgr: &mut RuntimeManager, led: &mut Ledger) {
        mgr.set_fault_plan(None);
        let last = inp.scenario.ticks().last().expect("passes have ticks");
        let mut settled = false;
        for k in 1..=MAX_DRAIN_TICKS {
            let Some(rec) = led.op("drain step", mgr.step(&drain_tick(last, k), DT)) else {
                return;
            };
            if rec.level == 0 && mgr.op_state() == OperatingState::Normal {
                settled = true;
                break;
            }
        }
        led.check(settled, || {
            "risk-1.0 drain never reached level 0 in Normal".into()
        });
        led.check(
            weights_checksum(mgr.network()) == self.base_checksum,
            || "level-0 weights differ from the pre-attach weights".into(),
        );
    }

    /// One single-vehicle pass (commute, storm, crash_recover).
    fn single_pass(
        &self,
        inp: &Inputs,
        led: &mut Ledger,
        tm: &mut Timings,
        mut tracer: Option<&mut Tracer>,
    ) -> Option<Pass> {
        let kind = inp.ladder_kind();
        let ticks = inp.scenario.ticks();
        let set_up_at = Instant::now();
        let (mut mgr, took, spare) = self.setup_single(inp, led)?;
        tm.setup_s.push(took.as_secs_f64());

        let mut shadow = match tracer.as_deref_mut() {
            Some(tr) => {
                let id = tr.span(0, replay::SETUP, set_up_at, set_up_at + took, 0);
                let ladder = self.ladder(inp, led)?;
                Some(led.op(
                    "shadow attach",
                    Shadow::attach(self.net, ladder, kind, inp.frame_seeds[0], tr, id),
                )?)
            }
            None => None,
        };
        let samples = (tracer.is_some() && kind == LadderKind::FineTuned)
            .then(crate::inputs::fine_tune_samples);

        let plan_seed = inp.plan_seeds[0];
        mgr.set_fault_plan(Some(FaultPlan::from_scenario(&inp.scenario, plan_seed)));
        let dense_j = mgr.knowledge()[0].inference.energy.0;
        let mut pass = Pass::default();
        let mut digest = Fnv::default();
        let mut prev_level = mgr.current_level();
        let mut records: Vec<TickRecord> = Vec::new();
        let mut pending: Vec<(usize, TickRecord)> = Vec::new();
        let mut drills = inp.drills.iter().peekable();
        for (i, tick) in ticks.iter().enumerate() {
            let t0 = Instant::now();
            let stepped = mgr.step(tick, DT);
            let t1 = Instant::now();
            let rec = led.op("step", stepped)?;
            tm.tick_us.push(micros(t1 - t0));
            tm.busy_s += (t1 - t0).as_secs_f64();
            tm.member_ticks += 1;
            if rec.level < prev_level {
                tm.restore_tick_us.push(micros(t1 - t0));
                pass.restore_ticks += 1;
            }
            prev_level = rec.level;
            pass.note(&rec, dense_j);
            digest.debug(&rec);
            if let (Some(tr), Some(sh)) = (tracer.as_deref_mut(), shadow.as_mut()) {
                let id = tr.span(i, replay::STEP, t0, t1, 0);
                led.op("replay", sh.replay(&rec, i, id, tr))?;
            }
            if inp.drills.is_empty() {
                continue;
            }
            records.push(rec);
            pending.retain(|(rt, resumed)| {
                let Some(want) = records.get(*rt) else {
                    return true;
                };
                led.check(resumed == want, || {
                    format!("resumed record at tick {rt} differs from the uninterrupted run")
                });
                false
            });
            if drills.next_if_eq(&&i).is_none() {
                continue;
            }
            // Crash drill: freeze a copy of the device as a kill would
            // leave it, rebuild a runtime from it, take the first
            // resumed step. The uninterrupted vehicle drives on.
            let device = led.op("freeze", mgr.spill_device_bytes().ok_or("spill is off"))?;
            let copy = tracer.is_some().then(|| device.clone());
            let (net, ladder) = (
                self.net.clone(),
                spare.clone().expect("drills keep a ladder"),
            );
            let t0 = Instant::now();
            let resumed =
                RuntimeManager::recover(net, ladder, inp.config(0), DurableLog::from_bytes(device))
                    .and_then(|(mut m, report)| {
                        m.set_fault_plan(Some(FaultPlan::from_scenario(&inp.scenario, plan_seed)));
                        let rt = m.resume_tick();
                        Ok((rt, m.step(&ticks[rt], DT)?, report))
                    });
            let t1 = Instant::now();
            let (rt, rec, report) = led.op("recover", resumed)?;
            tm.recover_ms.push((t1 - t0).as_secs_f64() * 1e3);
            tm.busy_s += (t1 - t0).as_secs_f64();
            led.check(report.resumed, || {
                format!("drill after tick {i} found no usable commit mark")
            });
            pass.resume_lags.push((i + 1).saturating_sub(rt) as f64);
            pass.records_scanned.push(report.records_scanned as f64);
            pending.push((rt, rec));
            if let (Some(tr), Some(copy)) = (tracer.as_deref_mut(), copy) {
                let id = tr.span(i, replay::RECOVER, t0, t1, 0);
                led.op(
                    "replay read_all",
                    tr.time(i, replay::READ_ALL, id, || {
                        DurableLog::from_bytes(copy).read_all()
                    }),
                )?;
                let (mut net, ladder) = (self.net.clone(), self.ladder(inp, led)?);
                let data = samples.as_ref().expect("fine-tuned drills render samples");
                led.op(
                    "replay attach_fine_tuned",
                    tr.time(i, replay::ATTACH_FT, id, || {
                        ReversiblePruner::attach_fine_tuned(&mut net, ladder, data.samples())
                    }),
                )?;
            }
        }
        led.check(pending.is_empty(), || {
            format!("{} resumed records never compared", pending.len())
        });
        pass.records_digest = digest.finish();
        pass.absorb_manager(&mgr);
        pass.unique_weight_bytes = unique_bytes(mgr.weight_storage());
        pass.pool_size = 1;
        if let (Some(tr), Some(device)) = (tracer, mgr.spill_device_bytes()) {
            let end = ticks.len() - 1;
            led.op(
                "replay read_all",
                tr.time(end, replay::READ_ALL, 0, || {
                    DurableLog::from_bytes(device).read_all()
                }),
            )?;
        }
        if let Some(sh) = &shadow {
            pass.absorb_shadows(std::slice::from_ref(sh));
        }
        led.check(pass.silent_corruption == 0, || {
            format!("{} silently corrupted inferences", pass.silent_corruption)
        });
        self.drain_single(inp, &mut mgr, led);
        Some(pass)
    }

    /// One fleet pass.
    fn fleet_pass(
        &self,
        inp: &Inputs,
        led: &mut Ledger,
        tm: &mut Timings,
        mut tracer: Option<&mut Tracer>,
    ) -> Option<Pass> {
        let ticks = inp.scenario.ticks();
        let m = inp.members();
        let set_up_at = Instant::now();
        let (mut fleet, took) = self.setup_fleet(inp, led)?;
        tm.setup_s.push(took.as_secs_f64());

        let mut shadows = Vec::new();
        let mut planner = None;
        if let Some(tr) = tracer.as_deref_mut() {
            let id = tr.span(0, replay::SETUP, set_up_at, set_up_at + took, 0);
            for &seed in &inp.frame_seeds {
                let ladder = self.ladder(inp, led)?;
                shadows.push(led.op(
                    "shadow attach",
                    Shadow::attach(self.net, ladder, LadderKind::Standard, seed, tr, id),
                )?);
            }
            planner = Some(led.op("planner", FleetPlanner::new(fleet.profiles().to_vec()))?);
        }

        for (i, &seed) in inp.plan_seeds.iter().enumerate() {
            fleet
                .manager_mut(i)
                .set_fault_plan(Some(FaultPlan::from_scenario(&inp.scenario, seed)));
        }
        let dense_j: Vec<f64> = fleet
            .profiles()
            .iter()
            .map(|p| p.energy_per_level[0].0)
            .collect();
        let dense_total: f64 = dense_j.iter().sum();
        let mut pass = Pass::default();
        let mut digest = Fnv::default();
        let mut risks = Vec::with_capacity(m);
        let mut prev = vec![0usize; m];
        for (k, tick) in ticks.iter().enumerate() {
            inp.member_risks(k, &mut risks);
            let budget = Some(Joules(dense_total * inp.budget_fracs[k]));
            let t0 = Instant::now();
            let stepped = fleet.step_with_risks(tick, DT, &risks, budget);
            let t1 = Instant::now();
            let rec = led.op("fleet step", stepped)?;
            tm.tick_us.push(micros(t1 - t0));
            tm.busy_s += (t1 - t0).as_secs_f64();
            tm.member_ticks += m as u64;
            if rec.members.iter().zip(&prev).any(|(mt, &p)| mt.level < p) {
                tm.restore_tick_us.push(micros(t1 - t0));
                pass.restore_ticks += 1;
            }
            for ((mt, p), &d) in rec.members.iter().zip(prev.iter_mut()).zip(&dense_j) {
                *p = mt.level;
                pass.note(&mt.record, d);
            }
            digest.debug(&rec);
            if let (Some(tr), Some(planner)) = (tracer.as_deref_mut(), planner.as_mut()) {
                let id = tr.span(k, replay::FLEET_STEP, t0, t1, 0);
                let profiles = fleet.profiles();
                led.op(
                    "replay plan_budget_prevalidated",
                    tr.time(k, replay::PLAN_SCRATCH, id, || {
                        plan_budget_prevalidated(profiles, &risks, budget)
                    }),
                )?;
                led.op(
                    "replay FleetPlanner::plan",
                    tr.time(k, replay::PLAN_INCREMENTAL, id, || {
                        planner.plan(&risks, budget)
                    }),
                )?;
                tm.dirty.push(planner.stats().dirty_occupancy());
                for (sh, mt) in shadows.iter_mut().zip(&rec.members) {
                    led.op("replay", sh.replay(&mt.record, k, id, tr))?;
                }
            }
        }
        pass.records_digest = digest.finish();
        for i in 0..m {
            pass.absorb_manager(fleet.manager(i));
        }
        pass.unique_weight_bytes = fleet.weight_storage_bytes().unique as u64;
        pass.pool_size = fleet.pool_size();
        pass.absorb_shadows(&shadows);
        led.check(pass.silent_corruption == 0, || {
            format!("{} silently corrupted inferences", pass.silent_corruption)
        });

        // Drain: no more faults, every member at risk 1.0 with no budget.
        for i in 0..m {
            fleet.manager_mut(i).set_fault_plan(None);
        }
        let last = ticks.last().expect("passes have ticks");
        let ones = vec![1.0; m];
        let mut settled = false;
        for k in 1..=MAX_DRAIN_TICKS {
            let rec = led.op(
                "drain step",
                fleet.step_with_risks(&drain_tick(last, k), DT, &ones, None),
            )?;
            let normal = (0..m).all(|i| fleet.manager(i).op_state() == OperatingState::Normal);
            if normal && rec.members.iter().all(|mt| mt.level == 0) {
                settled = true;
                break;
            }
        }
        led.check(settled, || {
            "risk-1.0 drain never brought the fleet to level 0 in Normal".into()
        });
        let intact =
            (0..m).all(|i| weights_checksum(fleet.manager(i).network()) == self.base_checksum);
        led.check(intact, || {
            "a member's level-0 weights differ from the pre-attach weights".into()
        });
        Some(pass)
    }
}

/// Runs `opts.workload` against the trained `net` and reports.
pub fn run(opts: &Options, net: &Network) -> Outcome {
    let ctx = Ctx {
        net,
        base_checksum: weights_checksum(net),
    };
    let first_inputs = Inputs::generate(opts.workload, opts.seed, 0, opts.quick);
    let mut led = Ledger::default();
    let mut notes = Vec::new();
    let input_digest = first_inputs.digest();
    if opts.seed == DEFAULT_SEED {
        let (_, full, quick) = PINNED_DIGESTS
            .iter()
            .find(|(name, ..)| *name == opts.workload.name())
            .copied()
            .expect("every workload is pinned");
        let pinned = if opts.quick { quick } else { full };
        led.check(input_digest == pinned, || {
            format!("input_digest {input_digest:016x} differs from the pinned {pinned:016x}")
        });
    }

    let mut tracer = opts.trace.then(Tracer::default);
    let mut tm = Timings::default();
    let mut first: Option<Pass> = None;
    let mut passes = 0u64;
    let window = Instant::now();
    loop {
        let generated;
        let inp = if passes == 0 {
            &first_inputs
        } else {
            generated = Inputs::generate(opts.workload, opts.seed, passes, opts.quick);
            &generated
        };
        let (busy_before, ticks_before) = (tm.busy_s, tm.member_ticks);
        heap::reset_peak();
        let pass = if opts.workload == Workload::Fleet {
            ctx.fleet_pass(inp, &mut led, &mut tm, tracer.as_mut())
        } else {
            ctx.single_pass(inp, &mut led, &mut tm, tracer.as_mut())
        };
        let Some(pass) = pass else {
            break;
        };
        tm.pass_heap_mib.push(heap::peak_bytes() as f64 / MIB);
        let (busy, ticks) = (tm.busy_s - busy_before, tm.member_ticks - ticks_before);
        if busy > 0.0 {
            tm.pass_rates.push(ticks as f64 / busy);
        }
        passes += 1;
        first.get_or_insert(pass);
        if opts.quick || window.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    // Top the set-up samples up, so the median is over several.
    let min_setups = if opts.quick { 1 } else { MIN_SETUPS };
    while passes > 0 && tm.setup_s.len() < min_setups {
        let took = if opts.workload == Workload::Fleet {
            ctx.setup_fleet(&first_inputs, &mut led)
                .map(|(_, took)| took)
        } else {
            ctx.setup_single(&first_inputs, &mut led)
                .map(|(_, took, _)| took)
        };
        let Some(took) = took else {
            break;
        };
        tm.setup_s.push(took.as_secs_f64());
    }

    let pass = first.unwrap_or_default();
    let n = tm.tick_us.len();
    if !opts.quick {
        led.check(supports(n, 99.0), || {
            format!("{n} ticks cannot support tick_p99_us")
        });
        led.check(tm.restore_tick_us.len() >= MIN_RESTORE_SAMPLES, || {
            format!(
                "{} restore ticks, fewer than {MIN_RESTORE_SAMPLES}",
                tm.restore_tick_us.len()
            )
        });
    }
    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(0.0);
    let end_to_end = vec![
        metric("setup_s", median(&tm.setup_s).unwrap_or(0.0), "s"),
        metric("tick_p50_us", pct(&tm.tick_us, 50.0), "us"),
        metric("tick_p99_us", pct(&tm.tick_us, 99.0), "us"),
        metric(
            "member_ticks_per_s",
            median(&tm.pass_rates).unwrap_or(0.0),
            "1/s",
        ),
        metric("restore_tick_p50_us", pct(&tm.restore_tick_us, 50.0), "us"),
        // A mean, not a median: growable buffers double, so per-pass
        // peaks cluster at two levels and a median would jump between
        // them with the mix of drives.
        metric("heap_peak_mib", mean(&tm.pass_heap_mib), "MiB"),
    ];
    notes.push(format!(
        "samples: {} setups, {n} ticks, {} restore ticks, {} recoveries, {} member-ticks over {:.3} s busy",
        tm.setup_s.len(),
        tm.restore_tick_us.len(),
        tm.recover_ms.len(),
        tm.member_ticks,
        tm.busy_s
    ));
    if let Some(hwm) = proc_status_mib("VmHWM") {
        notes.push(format!("process peak resident set (VmHWM) {hwm:.1} MiB"));
    }

    let ticks = pass.member_ticks.max(1) as f64;
    let mut outcomes = vec![
        metric(
            "safety_violation_ratio",
            pass.violations as f64 / ticks,
            "ratio",
        ),
        metric(
            "energy_saved_frac",
            if pass.dense_j > 0.0 {
                1.0 - pass.energy_j / pass.dense_j
            } else {
                0.0
            },
            "ratio",
        ),
        metric("accuracy", pass.correct as f64 / ticks, "ratio"),
        metric(
            "restore_ticks_first_pass",
            pass.restore_ticks as f64,
            "count",
        ),
        metric("member_ticks_first_pass", pass.member_ticks as f64, "count"),
    ];
    if !tm.recover_ms.is_empty() {
        outcomes.push(metric("recover_p50_ms", pct(&tm.recover_ms, 50.0), "ms"));
        if let Some(p) = tail_percentile(tm.recover_ms.len()) {
            notes.push(format!(
                "recover tail: p{p} = {:.3} ms of {} recoveries",
                pct(&tm.recover_ms, p),
                tm.recover_ms.len()
            ));
        }
    }

    let mut per_layer = Vec::new();
    if let Some(tr) = &tracer {
        per_layer = layer_metrics(&ctx, &first_inputs, &tm, &pass, tr, &mut led, &mut notes);
        let path = opts
            .spans_dir
            .join(format!("spans-{}.jsonl", opts.workload.name()));
        if led.op("write spans", tr.write_jsonl(&path)).is_some() {
            notes.push(format!("spans written to {}", path.display()));
        }
    }
    outcomes.push(metric(
        "op_error_ratio",
        led.failed as f64 / led.attempted.max(1) as f64,
        "ratio",
    ));
    Outcome {
        attempted: led.attempted,
        failed: led.failed,
        failures: led.failures,
        passes: passes as usize,
        input_digest,
        records_digest: pass.records_digest,
        end_to_end,
        per_layer,
        outcomes,
        notes,
    }
}

/// MACs of one inference at each ladder level, and whether the level
/// executes at int8.
fn level_macs(net: &Network, ladder: &SparsityLadder) -> Option<Vec<(f64, bool)>> {
    let dims = [1, SCENE_SIZE, SCENE_SIZE];
    ladder
        .levels()
        .map(|level| {
            let profile = NetworkProfile::of_masked(net, &dims, Some(&level.masks)).ok()?;
            Some((
                profile.total_macs() as f64,
                level.precision == PrecisionMode::Int8,
            ))
        })
        .collect()
}

/// The traced run's per-layer metrics. Timings pool every pass; counts
/// are the first pass's, identical in every run of a seed. Shares are
/// replay time over the timed calls' time (on the fleet, over that time
/// × pool threads), and the owning runtime layer takes the remainder, so
/// they sum to 1.
fn layer_metrics(
    ctx: &Ctx,
    inp: &Inputs,
    tm: &Timings,
    pass: &Pass,
    tr: &Tracer,
    led: &mut Ledger,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let by = tr.micros_by_name();
    let empty = Vec::new();
    let spans = |name: &str| by.get(name).unwrap_or(&empty);
    let pct = |name: &str, p: f64| percentile(spans(name), p).unwrap_or(0.0);
    let total = |name: &str| spans(name).iter().sum::<f64>();
    let fleet = inp.workload == Workload::Fleet;
    let root = if fleet {
        replay::FLEET_STEP
    } else {
        replay::STEP
    };
    let step_total = total(root) * pass.pool_size.max(1) as f64;
    let share = |us: f64| {
        if step_total > 0.0 {
            us / step_total
        } else {
            0.0
        }
    };
    let nn_share = share(total(replay::PREDICT));
    let prune_share =
        share(total(replay::RESTORE) + total(replay::PRUNE) + total(replay::CHECKSUM));
    let planner_share = share(total(replay::PLAN_SCRATCH));
    let remainder = 1.0 - nn_share - prune_share - planner_share;
    let restores = spans(replay::RESTORE).len();
    let tail = tail_percentile(restores).unwrap_or(50.0);
    notes.push(format!(
        "prune.restore_us_tail is p{tail} of {restores} replayed restores"
    ));

    let ticks = pass.member_ticks.max(1) as f64;
    let macs = ctx
        .ladder(inp, led)
        .and_then(|l| level_macs(ctx.net, &l))
        .unwrap_or_default();
    let (mut all_macs, mut int8_macs) = (0.0, 0.0);
    for (&count, &(m, int8)) in pass.level_ticks.iter().zip(&macs) {
        all_macs += count as f64 * m;
        if int8 {
            int8_macs += count as f64 * m;
        }
    }
    let recover_us: f64 = tm.recover_ms.iter().sum::<f64>() * 1e3;
    let members = inp.members() as f64;
    let mib = |b: u64| b as f64 / MIB;
    vec![
        metric("tensor.macs_per_tick", all_macs / ticks, "MAC"),
        metric(
            "tensor.int8_mac_share",
            if all_macs > 0.0 {
                int8_macs / all_macs
            } else {
                0.0
            },
            "ratio",
        ),
        metric("nn.predict_us_p50", pct(replay::PREDICT, 50.0), "us"),
        metric("nn.predict_us_p99", pct(replay::PREDICT, 99.0), "us"),
        metric("nn.predict_share", nn_share, "ratio"),
        metric(
            "nn.scratch_alloc_events",
            pass.scratch_alloc_events as f64,
            "count",
        ),
        metric("prune.restore_us_p50", pct(replay::RESTORE, 50.0), "us"),
        metric("prune.restore_us_tail", pct(replay::RESTORE, tail), "us"),
        metric("prune.prune_us_p50", pct(replay::PRUNE, 50.0), "us"),
        metric(
            "prune.weights_touched_per_transition",
            pass.replay_weights_touched as f64 / pass.replay_transitions.max(1) as f64,
            "count",
        ),
        metric("prune.checksum_us_p50", pct(replay::CHECKSUM, 50.0), "us"),
        metric(
            "prune.alloc_events",
            pass.pruner_alloc_events as f64,
            "count",
        ),
        metric(
            "prune.pops_verified_per_ktick",
            pass.pops_verified as f64 * 1e3 / ticks,
            "1/ktick",
        ),
        metric("prune.repairs", pass.repairs as f64, "count"),
        metric("prune.attach_ms", pct(replay::ATTACH, 50.0) / 1e3, "ms"),
        metric("prune.share", prune_share, "ratio"),
        metric(
            "platform.read_all_ms",
            pct(replay::READ_ALL, 50.0) / 1e3,
            "ms",
        ),
        metric("platform.device_mb", mib(pass.device_bytes), "MiB"),
        metric("runtime.manager.step_us_p50", pct(root, 50.0), "us"),
        metric(
            "runtime.manager.unattributed_share",
            if fleet { 0.0 } else { remainder },
            "ratio",
        ),
        metric(
            "runtime.manager.transitions_per_ktick",
            pass.transitions as f64 * 1e3 / ticks,
            "1/ktick",
        ),
        metric(
            "runtime.manager.faults_detected",
            pass.faults_detected as f64,
            "count",
        ),
        metric(
            "runtime.manager.degraded_ticks",
            pass.degraded_ticks as f64,
            "count",
        ),
        metric(
            "runtime.spill.bytes_per_tick",
            pass.spill_bytes_appended as f64 / ticks,
            "B",
        ),
        metric(
            "runtime.spill.marks_per_ktick",
            pass.spill_marks as f64 * 1e3 / ticks,
            "1/ktick",
        ),
        metric(
            "runtime.spill.stalled_ticks",
            pass.spill_stalled as f64,
            "count",
        ),
        metric(
            "runtime.recover.recover_ms_p50",
            percentile(&tm.recover_ms, 50.0).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "runtime.recover.attach_share",
            if recover_us > 0.0 {
                total(replay::ATTACH_FT) / recover_us
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "runtime.recover.resume_lag_ticks",
            mean(&pass.resume_lags),
            "ticks",
        ),
        metric(
            "runtime.recover.records_scanned",
            mean(&pass.records_scanned),
            "count",
        ),
        metric(
            "runtime.planner.scratch_ns_per_member",
            pct(replay::PLAN_SCRATCH, 50.0) * 1e3 / members,
            "ns",
        ),
        metric(
            "runtime.planner.incremental_ns_per_member",
            pct(replay::PLAN_INCREMENTAL, 50.0) * 1e3 / members,
            "ns",
        ),
        metric("runtime.planner.dirty_occupancy", mean(&tm.dirty), "ratio"),
        metric("runtime.planner.share", planner_share, "ratio"),
        metric(
            "runtime.executor.pool_size",
            pass.pool_size as f64,
            "threads",
        ),
        metric(
            "runtime.executor.unattributed_share",
            if fleet { remainder } else { 0.0 },
            "ratio",
        ),
        metric(
            "runtime.executor.unique_weight_mb",
            mib(pass.unique_weight_bytes),
            "MiB",
        ),
    ]
}
