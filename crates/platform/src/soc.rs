use crate::profile::NetworkProfile;
use crate::units::{Bytes, Joules, Seconds};
use reprune_nn::PrecisionMode;
use serde::{Deserialize, Serialize};

/// Roofline-style description of an embedded SoC.
///
/// Latency is the sum of a compute term (`MACs / peak throughput`) and a
/// memory term (`weight bytes / DRAM bandwidth`) plus a fixed dispatch
/// overhead; energy charges each MAC, each byte moved, and idle power for
/// the duration. Storage parameters price model reloads from eMMC/flash.
///
/// Two presets are provided: [`SocModel::jetson_class`] (automotive
/// embedded GPU class) and [`SocModel::mcu_class`] (microcontroller NPU
/// class). All fields are public so experiments can sweep them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocModel {
    /// Human-readable platform name.
    pub name: String,
    /// Sustained MAC throughput (MAC/s).
    pub macs_per_second: f64,
    /// DRAM bandwidth (bytes/s).
    pub dram_bytes_per_second: f64,
    /// Storage (eMMC/flash) sequential-read bandwidth (bytes/s).
    pub storage_bytes_per_second: f64,
    /// Storage fixed access latency per request (s).
    pub storage_access_latency: Seconds,
    /// Fixed kernel-dispatch / framework overhead per inference (s).
    pub dispatch_overhead: Seconds,
    /// Energy per MAC (J).
    pub energy_per_mac: f64,
    /// Energy per DRAM byte moved (J).
    pub energy_per_dram_byte: f64,
    /// Energy per storage byte read (J).
    pub energy_per_storage_byte: f64,
    /// Idle/static power while busy (W).
    pub idle_power_watts: f64,
    /// Software overhead per restored/pruned weight entry in the delta
    /// path (s per entry) — index decode + scattered write.
    pub delta_entry_overhead: Seconds,
    /// MAC-throughput multiplier when executing int8 instead of f32
    /// (quantized ladder rungs). Serde-defaulted so pre-precision
    /// configs deserialize unchanged.
    #[serde(default)]
    pub int8_mac_speedup: f64,
    /// Fraction of f32 weight traffic an int8 weight moves through DRAM
    /// (1 byte vs 4, ≈0.25).
    #[serde(default)]
    pub int8_dram_factor: f64,
    /// Energy of an int8 MAC relative to an f32 MAC.
    #[serde(default)]
    pub int8_energy_factor: f64,
}

impl SocModel {
    /// Jetson-class embedded GPU: the deployment target the experiments
    /// are calibrated to.
    pub fn jetson_class() -> Self {
        SocModel {
            name: "jetson-class".into(),
            macs_per_second: 5.0e11,          // ~1 TOPS effective at INT8/FP16 mix
            dram_bytes_per_second: 2.5e10,    // ~25 GB/s LPDDR4
            storage_bytes_per_second: 2.0e8,  // ~200 MB/s eMMC
            storage_access_latency: Seconds(2.0e-3),
            dispatch_overhead: Seconds(1.5e-4),
            energy_per_mac: 2.0e-12,          // ~2 pJ/MAC
            energy_per_dram_byte: 6.0e-11,    // ~60 pJ/B
            energy_per_storage_byte: 2.5e-10,
            idle_power_watts: 2.0,
            delta_entry_overhead: Seconds(4.0e-9),
            int8_mac_speedup: 2.0,   // tensor cores double int8 throughput
            int8_dram_factor: 0.25,  // 1-byte weights
            int8_energy_factor: 0.4, // narrower multipliers
        }
    }

    /// Microcontroller-NPU class platform (nano-drone / sensor node).
    pub fn mcu_class() -> Self {
        SocModel {
            name: "mcu-class".into(),
            macs_per_second: 2.0e9,
            dram_bytes_per_second: 4.0e8,
            storage_bytes_per_second: 2.0e7,
            storage_access_latency: Seconds(5.0e-3),
            dispatch_overhead: Seconds(2.0e-5),
            energy_per_mac: 8.0e-12,
            energy_per_dram_byte: 1.5e-10,
            energy_per_storage_byte: 5.0e-10,
            idle_power_watts: 0.05,
            delta_entry_overhead: Seconds(2.0e-8),
            int8_mac_speedup: 4.0,   // NPU MAC arrays are int8-native
            int8_dram_factor: 0.25,
            int8_energy_factor: 0.3,
        }
    }

    /// Latency and energy of one inference described by `profile`.
    pub fn inference_cost(&self, profile: &NetworkProfile) -> InferenceCost {
        let macs = profile.total_macs();
        let weight_bytes = profile.total_weight_bytes();
        // Activations move through DRAM too (read + write ≈ 8 bytes/elem).
        let act_bytes = profile.total_activations().saturating_mul(8);
        let compute = macs as f64 / self.macs_per_second;
        let memory = (weight_bytes.as_f64() + act_bytes as f64) / self.dram_bytes_per_second;
        // Compute and memory overlap on real accelerators: roofline max,
        // plus the non-overlappable dispatch overhead.
        let latency = Seconds(compute.max(memory)) + self.dispatch_overhead;
        let energy = Joules(
            macs as f64 * self.energy_per_mac
                + (weight_bytes.as_f64() + act_bytes as f64) * self.energy_per_dram_byte
                + latency.0 * self.idle_power_watts,
        );
        InferenceCost {
            latency,
            energy,
            macs,
            bytes_moved: weight_bytes + Bytes(act_bytes),
        }
    }

    /// Latency and energy of one inference executed at `precision`.
    ///
    /// [`PrecisionMode::F32`] delegates to [`SocModel::inference_cost`]
    /// bit-identically — an all-f32 ladder profiles exactly as before
    /// the precision axis existed. [`PrecisionMode::Int8`] scales MAC
    /// throughput by `int8_mac_speedup`, weight traffic by
    /// `int8_dram_factor`, and MAC energy by `int8_energy_factor`;
    /// activations still move at 8 bytes/element (they are quantized on
    /// the fly from f32 buffers).
    pub fn inference_cost_at(
        &self,
        profile: &NetworkProfile,
        precision: PrecisionMode,
    ) -> InferenceCost {
        if precision == PrecisionMode::F32 {
            return self.inference_cost(profile);
        }
        let macs = profile.total_macs();
        let weight_bytes = profile.total_weight_bytes().as_f64() * self.int8_dram_factor;
        let act_bytes = profile.total_activations().saturating_mul(8);
        let compute = macs as f64 / (self.macs_per_second * self.int8_mac_speedup);
        let memory = (weight_bytes + act_bytes as f64) / self.dram_bytes_per_second;
        let latency = Seconds(compute.max(memory)) + self.dispatch_overhead;
        let energy = Joules(
            macs as f64 * self.energy_per_mac * self.int8_energy_factor
                + (weight_bytes + act_bytes as f64) * self.energy_per_dram_byte
                + latency.0 * self.idle_power_watts,
        );
        InferenceCost {
            latency,
            energy,
            macs,
            bytes_moved: Bytes(weight_bytes as u64) + Bytes(act_bytes),
        }
    }

    /// Latency of restoring `entries` weights (8 bytes each) through the
    /// reversal-log delta path.
    pub fn delta_restore_latency(&self, entries: usize) -> Seconds {
        let bytes = (entries * 8) as f64;
        Seconds(bytes / self.dram_bytes_per_second) + self.delta_entry_overhead * entries as f64
    }

    /// Latency of a full in-RAM snapshot copy of `bytes`.
    pub fn snapshot_restore_latency(&self, bytes: Bytes) -> Seconds {
        // memcpy: read + write.
        Seconds(2.0 * bytes.as_f64() / self.dram_bytes_per_second)
    }

    /// Latency of reloading `bytes` of model image from storage.
    pub fn storage_reload_latency(&self, bytes: Bytes) -> Seconds {
        self.storage_reload_latency_scaled(bytes, 1.0)
    }

    /// Latency of a storage reload with the sequential-read bandwidth
    /// scaled by `bandwidth_factor` (a degraded/throttled device; see
    /// `StorageHealth`).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_factor` is not in `(0, 1]`.
    pub fn storage_reload_latency_scaled(&self, bytes: Bytes, bandwidth_factor: f64) -> Seconds {
        assert!(
            bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
            "bandwidth factor must be in (0, 1]"
        );
        self.storage_access_latency
            + Seconds(bytes.as_f64() / (self.storage_bytes_per_second * bandwidth_factor))
    }

    /// Energy of the delta restore path.
    pub fn delta_restore_energy(&self, entries: usize) -> Joules {
        let bytes = (entries * 8) as f64;
        Joules(
            bytes * self.energy_per_dram_byte
                + self.delta_restore_latency(entries).0 * self.idle_power_watts,
        )
    }

    /// Energy of a full in-RAM snapshot copy of `bytes`: every byte is
    /// read and written once, plus idle power over
    /// [`SocModel::snapshot_restore_latency`].
    pub fn snapshot_restore_energy(&self, bytes: Bytes) -> Joules {
        Joules(
            2.0 * bytes.as_f64() * self.energy_per_dram_byte
                + self.snapshot_restore_latency(bytes).0 * self.idle_power_watts,
        )
    }

    /// Energy of a storage reload.
    pub fn storage_reload_energy(&self, bytes: Bytes) -> Joules {
        Joules(
            bytes.as_f64() * self.energy_per_storage_byte
                + self.storage_reload_latency(bytes).0 * self.idle_power_watts,
        )
    }

    /// Latency of `steps` fine-tuning mini-batches of `batch` samples on a
    /// network with `macs` forward MACs (backward ≈ 2× forward).
    pub fn fine_tune_latency(&self, macs: u64, steps: usize, batch: usize) -> Seconds {
        let total = macs as f64 * 3.0 * steps as f64 * batch as f64;
        Seconds(total / self.macs_per_second)
            + self.dispatch_overhead * (steps * batch) as f64
    }

    /// Energy of the same fine-tuning run: compute MACs at the platform's
    /// per-MAC energy plus idle power over [`SocModel::fine_tune_latency`].
    /// This is the attach-time cost of one ladder level's fine-tune, and
    /// the same price the fine-tune *recovery* baseline pays per incident.
    pub fn fine_tune_energy(&self, macs: u64, steps: usize, batch: usize) -> Joules {
        let latency = self.fine_tune_latency(macs, steps, batch);
        Joules(
            macs as f64 * 3.0 * (steps * batch) as f64 * self.energy_per_mac
                + latency.0 * self.idle_power_watts,
        )
    }
}

/// Latency/energy outcome of one inference under a [`SocModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceCost {
    /// End-to-end single-inference latency.
    pub latency: Seconds,
    /// Energy for the inference.
    pub energy: Joules,
    /// MACs executed.
    pub macs: u64,
    /// Total bytes moved through DRAM.
    pub bytes_moved: Bytes,
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprune_nn::models;
    use reprune_prune::{LadderConfig, PruneCriterion};

    fn dense_profile() -> NetworkProfile {
        let net = models::default_perception_cnn(5).unwrap();
        NetworkProfile::of(&net, &[1, 16, 16]).unwrap()
    }

    #[test]
    fn inference_cost_positive_and_consistent() {
        let soc = SocModel::jetson_class();
        let c = soc.inference_cost(&dense_profile());
        assert!(c.latency.0 > 0.0);
        assert!(c.energy.0 > 0.0);
        assert_eq!(c.macs, 381_504);
    }

    #[test]
    fn structured_pruning_reduces_cost() {
        let net = models::default_perception_cnn(6).unwrap();
        let ladder = LadderConfig::new(vec![0.0, 0.5])
            .criterion(PruneCriterion::ChannelL2)
            .build(&net)
            .unwrap();
        let soc = SocModel::jetson_class();
        let dense = soc.inference_cost(&NetworkProfile::of(&net, &[1, 16, 16]).unwrap());
        let pruned = soc.inference_cost(
            &NetworkProfile::of_masked(&net, &[1, 16, 16], Some(&ladder.level(1).unwrap().masks))
                .unwrap(),
        );
        assert!(pruned.latency.0 < dense.latency.0);
        assert!(pruned.energy.0 < dense.energy.0);
        assert!(pruned.macs < dense.macs / 2);
    }

    #[test]
    fn mcu_slower_than_jetson() {
        let p = dense_profile();
        let fast = SocModel::jetson_class().inference_cost(&p);
        let slow = SocModel::mcu_class().inference_cost(&p);
        assert!(slow.latency.0 > fast.latency.0 * 3.0);
    }

    #[test]
    fn delta_restore_beats_storage_reload_by_orders_of_magnitude() {
        // The paper's headline restore-cost claim (T1 shape): for the
        // reference model, restoring ~27k pruned weights via the delta log
        // must be >10× faster than reloading the ~218 KB image from eMMC.
        let soc = SocModel::jetson_class();
        let entries = 27_000; // ~50% of the perception CNN
        let image = Bytes(218_000);
        let delta = soc.delta_restore_latency(entries);
        let reload = soc.storage_reload_latency(image);
        assert!(
            reload.0 > 10.0 * delta.0,
            "reload {reload} should dwarf delta {delta}"
        );
    }

    #[test]
    fn snapshot_faster_than_reload_but_slower_than_small_delta() {
        let soc = SocModel::jetson_class();
        let image = Bytes(218_000);
        let snap = soc.snapshot_restore_latency(image);
        let reload = soc.storage_reload_latency(image);
        let small_delta = soc.delta_restore_latency(1000);
        assert!(snap.0 < reload.0);
        assert!(small_delta.0 < snap.0);
    }

    #[test]
    fn restore_latency_monotone_in_size() {
        let soc = SocModel::jetson_class();
        assert!(soc.delta_restore_latency(10).0 < soc.delta_restore_latency(10_000).0);
        assert!(
            soc.storage_reload_latency(Bytes(1_000)).0
                < soc.storage_reload_latency(Bytes(1_000_000)).0
        );
        assert_eq!(soc.delta_restore_latency(0).0, 0.0);
    }

    #[test]
    fn fine_tune_dwarfs_everything() {
        let soc = SocModel::jetson_class();
        let macs = dense_profile().total_macs();
        let ft = soc.fine_tune_latency(macs, 50, 8);
        let reload = soc.storage_reload_latency(Bytes(218_000));
        assert!(ft.0 > reload.0, "fine-tune {ft} vs reload {reload}");
    }

    #[test]
    fn fine_tune_energy_scales_with_work_and_beats_delta_restore() {
        let soc = SocModel::jetson_class();
        let macs = dense_profile().total_macs();
        let short = soc.fine_tune_energy(macs, 10, 8);
        let long = soc.fine_tune_energy(macs, 50, 8);
        assert!(long.0 > short.0, "more steps must cost more energy");
        // The attach-time fine-tune is orders of magnitude dearer than
        // popping its delta segment later — that asymmetry is the whole
        // point of logging the deltas.
        let pop = soc.delta_restore_energy(50_000);
        assert!(short.0 > 10.0 * pop.0, "fine-tune {short} vs pop {pop}");
    }

    #[test]
    fn int8_execution_cheaper_on_both_presets() {
        let p = dense_profile();
        for soc in [SocModel::jetson_class(), SocModel::mcu_class()] {
            let f32_cost = soc.inference_cost_at(&p, PrecisionMode::F32);
            let i8_cost = soc.inference_cost_at(&p, PrecisionMode::Int8);
            assert!(i8_cost.latency.0 < f32_cost.latency.0, "{}", soc.name);
            assert!(i8_cost.energy.0 < f32_cost.energy.0, "{}", soc.name);
            assert_eq!(i8_cost.macs, f32_cost.macs, "precision changes cost, not work");
        }
    }

    #[test]
    fn f32_precision_cost_delegates_bit_identically() {
        let p = dense_profile();
        let soc = SocModel::jetson_class();
        let direct = soc.inference_cost(&p);
        let via = soc.inference_cost_at(&p, PrecisionMode::F32);
        assert_eq!(direct.latency.0.to_bits(), via.latency.0.to_bits());
        assert_eq!(direct.energy.0.to_bits(), via.energy.0.to_bits());
    }

    #[test]
    fn energies_positive() {
        let soc = SocModel::jetson_class();
        assert!(soc.delta_restore_energy(100).0 > 0.0);
        assert!(soc.storage_reload_energy(Bytes(1000)).0 > 0.0);
    }
}
