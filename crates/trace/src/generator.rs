//! The workload synthesizer: turns a [`WorkloadProfile`] into a full job
//! trace, calibrated so the trace's marginal statistics reproduce the
//! paper's published numbers (see `workload.rs` for the target inventory).
//!
//! Pipeline: build users → distribute per-user job counts (Zipf activity) →
//! sample submission sessions (bursty, feedback-driven exploration) and
//! per-job GPU demand / duration / final status into one vector sized
//! for the exact job count → calibrate per-VC offered load by rescaling
//! the load-bearing durations → sort by the unique submission key and
//! number the jobs → FIFO-replay start times (`replay.rs`).
//!
//! One trace is one sequential ChaCha12 stream, so [`generate`] runs on
//! one thread; [`generate_helios`] generates its four independent
//! clusters side by side.

use crate::cluster::{preset, ClusterSpec};
use crate::dist::{uniform, Discrete, LogNormal};
use crate::error::{HeliosError, HeliosResult};
use crate::profiles::{fluctuating_monthly, stable_monthly, SubmissionProfile};
use crate::replay::assign_start_times;
use crate::time::Calendar;
use crate::types::{ClusterId, JobRecord, JobStatus, NamePool, VcId};
use crate::users::{build_users, make_template, JobTemplate, UserProfile};
use crate::workload::{
    helios_profiles, philly_profile, StatusModel, TemplateKind, WorkloadProfile,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard cap on any job duration: 50 days (Table 2 "Maximum Duration").
pub const MAX_DURATION_SECS: i64 = 50 * 86_400;

/// Generator knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Linear scale on job counts *and* cluster size. `1.0` reproduces the
    /// paper-scale trace (3.36 M jobs across 802 nodes); smaller values
    /// shrink the cluster proportionally so per-VC load (and hence every
    /// distributional shape) is preserved.
    pub scale: f64,
    /// Master seed; combined with each profile's own sub-seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            scale: 1.0,
            seed: 2020,
        }
    }
}

impl GeneratorConfig {
    /// Config with an explicit scale and the default seed.
    pub fn with_scale(scale: f64) -> Self {
        GeneratorConfig {
            scale,
            ..Default::default()
        }
    }

    /// Check the configuration, returning every violated constraint as a
    /// [`HeliosError::InvalidConfig`].
    pub fn validate(&self) -> HeliosResult<()> {
        if !self.scale.is_finite() || self.scale <= 0.0 || self.scale > 1.0 {
            return Err(HeliosError::invalid_config(
                "scale",
                format!("must be in (0, 1], got {}", self.scale),
            ));
        }
        Ok(())
    }
}

/// A complete synthetic trace for one cluster.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The (possibly scaled) cluster the jobs ran on.
    pub spec: ClusterSpec,
    /// Calendar anchoring timestamps.
    pub calendar: Calendar,
    /// Jobs sorted by submission time, ids dense in submission order.
    pub jobs: Vec<JobRecord>,
    /// Interned job-name templates.
    pub names: NamePool,
}

impl Trace {
    /// Iterator over GPU jobs.
    pub fn gpu_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.is_gpu())
    }

    /// Iterator over CPU jobs.
    pub fn cpu_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| !j.is_gpu())
    }

    /// Jobs submitted within month `m` (0-based into the calendar).
    pub fn jobs_in_month(&self, m: usize) -> impl Iterator<Item = &JobRecord> {
        let (lo, hi) = self.calendar.month_range(m);
        self.jobs
            .iter()
            .filter(move |j| j.submit >= lo && j.submit < hi)
    }

    /// Total GPUs of the backing cluster.
    pub fn total_gpus(&self) -> u32 {
        self.spec.total_gpus()
    }

    /// Number of distinct users appearing in the trace.
    pub fn num_users(&self) -> usize {
        let mut users: Vec<u32> = self.jobs.iter().map(|j| j.user).collect();
        users.sort_unstable();
        users.dedup();
        users.len()
    }
}

/// Minimum number of VCs a scaled cluster keeps (Fig. 4 style per-VC
/// analyses need a top-10).
const MIN_SCALED_VCS: usize = 10;

/// Scale a cluster spec. Node counts shrink proportionally; VCs that would
/// fall below 2 nodes are dropped (except that the largest
/// `MIN_SCALED_VCS` (10) VCs are always kept at ≥ 2 nodes), so the scaled
/// cluster keeps roughly `scale` × the original capacity instead of being
/// inflated by per-VC floors.
///
/// The no-op path (`scale == 1.0`) borrows the input instead of cloning
/// it; only an actually-scaled spec allocates (and then builds its VC list
/// directly instead of cloning the input's VCs twice).
pub fn scale_spec(spec: &ClusterSpec, scale: f64) -> HeliosResult<Cow<'_, ClusterSpec>> {
    if !scale.is_finite() || scale <= 0.0 || scale > 1.0 {
        return Err(HeliosError::invalid_config(
            "scale",
            format!("must be in (0, 1], got {scale}"),
        ));
    }
    if (scale - 1.0).abs() < f64::EPSILON {
        return Ok(Cow::Borrowed(spec));
    }
    let mut order: Vec<usize> = (0..spec.num_vcs()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(spec.vcs[i].nodes));
    let keep_floor: Vec<bool> = {
        let mut k = vec![false; spec.num_vcs()];
        for &i in order.iter().take(MIN_SCALED_VCS) {
            k[i] = true;
        }
        k
    };
    let mut vcs: Vec<_> = spec
        .vcs
        .iter()
        .enumerate()
        .filter_map(|(i, vc)| {
            let nodes = (vc.nodes as f64 * scale).round() as u32;
            let nodes = if keep_floor[i] { nodes.max(2) } else { nodes };
            (nodes >= 2).then(|| {
                let mut v = vc.clone();
                v.nodes = nodes;
                v
            })
        })
        .collect();
    for (i, vc) in vcs.iter_mut().enumerate() {
        vc.id = i as VcId;
    }
    let nodes = vcs.iter().map(|v| v.nodes).sum();
    Ok(Cow::Owned(ClusterSpec {
        vcs,
        nodes,
        ..*spec
    }))
}

/// Largest-remainder apportionment of `total` across `weights`.
fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 || total == 0 {
        return vec![0; weights.len()];
    }
    let raw: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<u64> = raw.iter().map(|r| r.floor() as u64).collect();
    let mut remainder = total - counts.iter().sum::<u64>();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = raw[a] - raw[a].floor();
        let fb = raw[b] - raw[b].floor();
        fb.partial_cmp(&fa).unwrap()
    });
    let mut cursor = 0;
    while remainder > 0 {
        counts[order[cursor % order.len()]] += 1;
        remainder -= 1;
        cursor += 1;
    }
    counts
}

/// Effective cancellation probability: grows with GPU count so completion
/// falls (and cancellation rises) with job size, Fig. 7(b).
fn cancel_probability(base: f64, gpus: u32) -> f64 {
    let g = gpus.max(1) as f64;
    (base * (1.0 + 0.38 * g.log2())).min(0.85)
}

/// Per-user bookkeeping while emitting jobs. Every job goes into one
/// vector, allocated once for the trace's exact job count, in emission
/// order (user by user, then the mega submissions); the load calibration
/// sums over that order and the finalization sorts it in place.
struct Emitter<'a> {
    rng: ChaCha12Rng,
    profile: &'a WorkloadProfile,
    calendar: &'a Calendar,
    jobs: Vec<JobRecord>,
    /// Per-template run counters (indexed by NameId).
    runs: Vec<u32>,
}

impl<'a> Emitter<'a> {
    fn new(
        profile: &'a WorkloadProfile,
        calendar: &'a Calendar,
        names_len: usize,
        jobs: usize,
        rng: ChaCha12Rng,
    ) -> Self {
        Emitter {
            rng,
            profile,
            calendar,
            jobs: Vec::with_capacity(jobs),
            runs: vec![0; names_len],
        }
    }

    /// Geometric-ish burst size: users submit several variations of the same
    /// experiment back-to-back (feedback-driven exploration, §1).
    fn burst_size(&mut self, cap: u64) -> u64 {
        let mut b = 1u64;
        while b < 6 && self.rng.gen_bool(0.38) {
            b += 1;
        }
        b.min(cap.max(1))
    }

    /// Sample one job's final status and duration from its intended duration.
    fn finalize(&mut self, intended: f64, gpus: u32, t: &JobTemplate) -> (JobStatus, i64) {
        let p_fail = t.fail;
        let p_cancel = cancel_probability(t.cancel, gpus);
        let r: f64 = self.rng.gen();
        let (status, dur) = if r < p_fail {
            let d = match self.profile.status_model {
                StatusModel::Helios => {
                    // §3.2.2: "most failed jobs are terminated within a short
                    // time" — but Fig. 1b attributes 9.3% of GPU time to
                    // failures, so a minority are late crashes (node failure,
                    // OOM deep into training).
                    if self.rng.gen_bool(0.3) {
                        intended * uniform(&mut self.rng, 0.2, 1.0)
                    } else {
                        let quick = LogNormal::from_median(100.0, 1.2).sample(&mut self.rng);
                        intended.min(quick)
                    }
                }
                StatusModel::Philly => intended * uniform(&mut self.rng, 0.2, 1.2),
            };
            (JobStatus::Failed, d)
        } else if r < p_fail + p_cancel {
            (
                JobStatus::Canceled,
                intended * uniform(&mut self.rng, 0.05, 0.95),
            )
        } else {
            (JobStatus::Completed, intended)
        };
        (status, (dur.round() as i64).clamp(1, MAX_DURATION_SECS))
    }

    /// Emit `count` jobs for `user` drawn from `templates`, with submission
    /// times from `submit_profile`.
    fn emit(
        &mut self,
        user: &UserProfile,
        templates: &[JobTemplate],
        count: u64,
        submit_profile: &SubmissionProfile,
        max_burst: u64,
    ) {
        if templates.is_empty() || count == 0 {
            return;
        }
        let weights: Vec<f64> = templates.iter().map(|t| t.weight).collect();
        let picker = Discrete::new(&weights);
        let mut remaining = count;
        while remaining > 0 {
            let t = &templates[picker.sample(&mut self.rng)];
            let burst = self.burst_size(remaining.min(max_burst));
            let base = submit_profile.sample(&mut self.rng);
            for k in 0..burst {
                let submit = (base + k as i64 * self.rng.gen_range(15..180i64))
                    .min(self.calendar.total_seconds() - 1);
                let gpus = t.sample_gpus(&mut self.rng);
                let intended = match t.kind {
                    // Queries take 1–2 s flat.
                    TemplateKind::Query => {
                        if self.rng.gen_bool(0.8) {
                            1.0
                        } else {
                            2.0
                        }
                    }
                    _ => t.duration.sample(&mut self.rng),
                };
                let (status, duration) = self.finalize(intended, gpus, t);
                let cpus = match t.kind {
                    TemplateKind::Query => self.rng.gen_range(1..=4),
                    TemplateKind::Preprocess => self.rng.gen_range(8..=64),
                    _ => 6 * gpus,
                };
                let run = &mut self.runs[t.name as usize];
                self.jobs.push(JobRecord {
                    id: 0, // assigned after the sort
                    user: user.id,
                    vc: t.vc,
                    gpus,
                    cpus,
                    submit,
                    start: submit, // refined by replay
                    duration,
                    status,
                    name: t.name,
                    run: *run,
                });
                *run += 1;
            }
            remaining -= burst;
        }
    }
}

/// Generate the trace for one workload profile.
pub fn generate(profile: &WorkloadProfile, cfg: &GeneratorConfig) -> HeliosResult<Trace> {
    cfg.validate()?;
    let full = preset(profile.cluster);
    let full_gpus = full.total_gpus();
    let spec = match scale_spec(&full, cfg.scale)? {
        // No-op scale: reuse the owned preset outright (no clone at all).
        Cow::Borrowed(_) => full,
        Cow::Owned(scaled) => scaled,
    };
    let calendar = match profile.cluster {
        ClusterId::Philly => Calendar::philly_2017(),
        _ => Calendar::helios_2020(),
    };
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed ^ profile.seed.wrapping_mul(0x9E37));
    let mut names = NamePool::new();
    let users = build_users(&spec, profile, &mut names, &mut rng);

    // --- Target counts. Counts scale with the *realised* capacity ratio
    // (which equals `cfg.scale` up to VC rounding), so per-VC load — and
    // hence queueing behaviour — is preserved at any scale. ---
    let count_scale = spec.total_gpus() as f64 / full_gpus as f64;
    let gpu_target = (profile.gpu_jobs as f64 * count_scale).round() as u64;
    let preprocess_target =
        (profile.cpu_jobs as f64 * (1.0 - profile.query_share) * count_scale).round() as u64;
    let query_target = (profile.cpu_jobs as f64 * profile.query_share * count_scale).round() as u64;

    let gpu_counts = apportion(
        gpu_target,
        &users.iter().map(|u| u.gpu_activity).collect::<Vec<_>>(),
    );
    let prep_counts = apportion(
        preprocess_target,
        &users.iter().map(|u| u.cpu_activity).collect::<Vec<_>>(),
    );
    let query_counts = apportion(
        query_target,
        &users.iter().map(|u| u.query_activity).collect::<Vec<_>>(),
    );

    // --- Per-VC offered-load targets: drawn around the cluster's
    // utilization target, capped below saturation (`rho_max`) so queues stay
    // finite over the 6-month horizon. The calibration itself happens
    // *after* sampling (exact; see below). ---
    let horizon = calendar.total_seconds() as f64;
    let num_vcs = spec.num_vcs();
    // VCs running long jobs queue longer (Fig. 4: queuing delay is
    // approximately proportional to average job duration). The calibration
    // below fixes each VC's GPU time to rho * capacity, which makes the
    // eventual average duration proportional to capacity / (jobs * width);
    // coupling rho to that signal reproduces the paper's correlation: the
    // production-style VCs (few, long, wide jobs) run hottest.
    let duration_signal: Vec<f64> = {
        let mut n_vc = vec![0.0f64; num_vcs];
        let mut g_vc = vec![0.0f64; num_vcs];
        for (u, &count) in users.iter().zip(&gpu_counts) {
            if count == 0 {
                continue;
            }
            let total_w: f64 = u.gpu_templates.iter().map(|t| t.weight).sum();
            let mean_g: f64 = u
                .gpu_templates
                .iter()
                .map(|t| t.weight / total_w * t.mean_gpus())
                .sum();
            n_vc[u.vc as usize] += count as f64;
            g_vc[u.vc as usize] += count as f64 * mean_g;
        }
        let raw: Vec<f64> = (0..num_vcs)
            .map(|vc| {
                let cap = spec.vc_gpus(vc as VcId) as f64;
                (cap * horizon / (g_vc[vc].max(1.0) * 600.0)).ln()
            })
            .collect();
        let mean = raw.iter().sum::<f64>() / num_vcs as f64;
        let sd = (raw.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / num_vcs as f64)
            .sqrt()
            .max(1e-9);
        raw.iter().map(|x| (x - mean) / sd).collect()
    };
    let rho: Vec<f64> = (0..num_vcs)
        .map(|vc| {
            (profile.target_util
                + profile.util_spread
                    * (0.5 * crate::dist::standard_normal(&mut rng) + 0.9 * duration_signal[vc]))
                .clamp(0.15, profile.rho_max)
        })
        .collect();

    // --- Mega submissions (Saturn): extreme-scale requests that no static
    // VC can host; they end canceled/failed within minutes (Table 2's
    // 2 048-GPU maximum request). ---
    let mega_count = if profile.mega_jobs > 0 {
        ((profile.mega_jobs as f64 * cfg.scale).round() as u64).max(3)
    } else {
        0
    };
    let mega_template = if mega_count > 0 {
        // Owned by the most active production user of the largest VC.
        let big_vc = (0..num_vcs)
            .max_by_key(|&v| spec.vc_gpus(v as VcId))
            .unwrap() as VcId;
        let owner = users
            .iter()
            .filter(|u| u.vc == big_vc)
            .max_by(|a, b| a.gpu_activity.partial_cmp(&b.gpu_activity).unwrap())
            .map(|u| u.id)
            .unwrap_or(0);
        Some((
            owner,
            make_template(
                TemplateKind::Mega,
                owner,
                big_vc,
                profile.duration_scale,
                1.0,
                profile.gpu_cap,
                1.0,
                &mut names,
                &mut rng,
            ),
        ))
    } else {
        None
    };

    // --- Submission-time profiles (Fig. 2/3 shapes). ---
    let m = calendar.num_months();
    let single_profile = SubmissionProfile::new(&calendar, &fluctuating_monthly(m, profile.seed));
    let multi_profile = SubmissionProfile::new(&calendar, &stable_monthly(m, profile.seed));
    let cpu_profile = SubmissionProfile::new(&calendar, &stable_monthly(m, profile.seed ^ 0xC0));

    // --- Emit jobs, user by user, then the mega submissions. Each `emit`
    // call writes exactly its count, so the total is known up front. ---
    let emitter_rng = ChaCha12Rng::seed_from_u64(rng.gen());
    let total = gpu_target + preprocess_target + query_target + mega_count;
    let mut emitter = Emitter::new(profile, &calendar, names.len(), total as usize, emitter_rng);
    for ((u, &gc), (&pc, &qc)) in users
        .iter()
        .zip(&gpu_counts)
        .zip(prep_counts.iter().zip(&query_counts))
    {
        let gpu_prof = if u.multi_gpu_user {
            &multi_profile
        } else {
            &single_profile
        };
        emitter.emit(u, &u.gpu_templates, gc, gpu_prof, 6);
        if pc + qc > 0 {
            let (prep, query): (Vec<JobTemplate>, Vec<JobTemplate>) = u
                .cpu_templates
                .iter()
                .cloned()
                .partition(|t| t.kind == TemplateKind::Preprocess);
            emitter.emit(u, &prep, pc, &cpu_profile, 4);
            // Automation scripts fire in longer trains.
            emitter.emit(u, &query, qc, &cpu_profile, 24);
        }
    }
    let mut mega_name = None;
    if let Some((owner, template)) = mega_template {
        let owner_profile = users.iter().find(|u| u.id == owner).unwrap();
        mega_name = Some(template.name);
        let first_mega = emitter.jobs.len();
        emitter.emit(owner_profile, &[template], mega_count, &multi_profile, 2);
        // Guarantee the headline 2 048-GPU request (Table 2) exists at any
        // scale/seed: pin the first mega submission to the cluster maximum.
        if let Some(first) = emitter.jobs.get_mut(first_mega) {
            debug_assert_eq!(Some(first.name), mega_name);
            first.gpus = profile.gpu_cap;
        }
    }
    debug_assert_eq!(emitter.jobs.len() as u64, total);

    // --- Exact load calibration: rescale the sampled durations of the
    // load-bearing kinds (Eval/Train/DistTrain) so each VC's realised
    // offered GPU time equals `rho[vc] * capacity`. Debug jobs stay short —
    // debugging takes minutes regardless of how busy a cluster is. ---
    let kind_by_name: Vec<TemplateKind> = {
        let mut kinds = vec![TemplateKind::Debug; names.len()];
        for u in &users {
            for t in u.gpu_templates.iter().chain(&u.cpu_templates) {
                kinds[t.name as usize] = t.kind;
            }
        }
        if let Some(id) = mega_name {
            kinds[id as usize] = TemplateKind::Mega;
        }
        kinds
    };
    let scalable = |k: TemplateKind| {
        matches!(
            k,
            TemplateKind::Eval | TemplateKind::Train | TemplateKind::DistTrain
        )
    };
    let mut fixed_load = vec![0.0f64; num_vcs];
    let mut scalable_load = vec![0.0f64; num_vcs];
    for j in &emitter.jobs {
        if !j.is_gpu() {
            continue;
        }
        let bucket = if scalable(kind_by_name[j.name as usize]) {
            &mut scalable_load
        } else {
            &mut fixed_load
        };
        bucket[j.vc as usize] += j.gpu_time() as f64;
    }
    let kappa: Vec<f64> = (0..num_vcs)
        .map(|vc| {
            let need = rho[vc] * spec.vc_gpus(vc as VcId) as f64 * horizon - fixed_load[vc];
            if scalable_load[vc] > 0.0 && need > 0.0 {
                (need / scalable_load[vc]).clamp(0.02, 200.0)
            } else {
                1.0
            }
        })
        .collect();
    for j in &mut emitter.jobs {
        if j.is_gpu() && scalable(kind_by_name[j.name as usize]) {
            let d = j.duration as f64 * kappa[j.vc as usize];
            j.duration = (d.round() as i64).clamp(1, MAX_DURATION_SECS);
        }
    }

    // Submission-ordered ids; ties broken deterministically by (user, name).
    // Every job key (submit, user, name, run) is unique — the run counter
    // separates same-template resubmissions — so the unstable sort is
    // deterministic and equals a stable sort of the emission order.
    let mut jobs = emitter.jobs;
    jobs.sort_unstable_by_key(sort_key);
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = i as u64;
    }
    assign_start_times(&mut jobs, &spec);

    Ok(Trace {
        spec,
        calendar,
        jobs,
        names,
    })
}

/// Submission-order sort key `(submit, user, name, run)`, packed into one
/// `u128` so sort comparisons are single integer compares instead of
/// 4-field lexicographic ones. Unique per job (the run counter separates
/// same-template resubmissions), so it defines one total order. Layout:
/// submit 40 bits (non-negative, < ~34 years), user 24, name 32, run 32.
fn sort_key(j: &JobRecord) -> u128 {
    debug_assert!((0..1 << 40).contains(&j.submit));
    debug_assert!(j.user < 1 << 24);
    ((j.submit as u128) << 88) | ((j.user as u128) << 64) | ((j.name as u128) << 32) | j.run as u128
}

/// Generate all four Helios cluster traces (Table 1 order).
///
/// The clusters are independent, so up to `available_parallelism()`
/// scoped workers generate them side by side, each taking the next
/// cluster, largest first by the profile's job count, when it finishes
/// one. Each trace is exactly what [`generate`] returns for its profile.
pub fn generate_helios(cfg: &GeneratorConfig) -> HeliosResult<Vec<Trace>> {
    let profiles = helios_profiles();
    let mut order: Vec<usize> = (0..profiles.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(profiles[i].gpu_jobs + profiles[i].cpu_jobs));
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(profiles.len());
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, HeliosResult<Trace>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    // sync: a claim counter only; each claimed index is read by
                    // one worker, and the results travel back through `join`
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        done.push((i, generate(&profiles[i], cfg)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, trace)| trace).collect()
}

/// Generate the Philly comparison trace.
pub fn generate_philly(cfg: &GeneratorConfig) -> HeliosResult<Trace> {
    generate(&philly_profile(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{earth_profile, venus_profile};

    fn small_cfg() -> GeneratorConfig {
        GeneratorConfig {
            scale: 0.05,
            seed: 7,
        }
    }

    #[test]
    fn job_counts_hit_target() {
        let p = venus_profile();
        let cfg = small_cfg();
        let t = generate(&p, &cfg).unwrap();
        // Counts scale with the realised capacity ratio (== cfg.scale up to
        // VC rounding).
        let ratio = t.total_gpus() as f64 / preset(p.cluster).total_gpus() as f64;
        let gpu = t.gpu_jobs().count() as f64;
        let cpu = t.cpu_jobs().count() as f64;
        let gpu_target = p.gpu_jobs as f64 * ratio;
        let cpu_target = p.cpu_jobs as f64 * ratio;
        assert!(
            (gpu / gpu_target - 1.0).abs() < 0.02,
            "gpu={gpu} target={gpu_target}"
        );
        assert!(
            (cpu / cpu_target - 1.0).abs() < 0.02,
            "cpu={cpu} target={cpu_target}"
        );
        // The top-10-VC floor bounds how small a cluster can shrink, so the
        // realised ratio may sit above the requested scale.
        assert!(
            ratio >= cfg.scale * 0.9 && ratio <= cfg.scale * 4.0,
            "ratio={ratio}"
        );
    }

    #[test]
    fn ids_dense_and_submission_sorted() {
        let t = generate(&venus_profile(), &small_cfg()).unwrap();
        for (i, w) in t.jobs.windows(2).enumerate() {
            assert!(w[0].submit <= w[1].submit, "unsorted at {i}");
        }
        for (i, j) in t.jobs.iter().enumerate() {
            assert_eq!(j.id, i as u64);
        }
    }

    #[test]
    fn durations_within_bounds() {
        let t = generate(&venus_profile(), &small_cfg()).unwrap();
        for j in &t.jobs {
            assert!(j.duration >= 1 && j.duration <= MAX_DURATION_SECS);
            assert!(j.submit >= 0 && j.submit < t.calendar.total_seconds());
            assert!(j.start >= j.submit);
        }
    }

    #[test]
    fn earth_is_mostly_single_gpu() {
        let t = generate(&earth_profile(), &small_cfg()).unwrap();
        let gpu: Vec<&JobRecord> = t.gpu_jobs().collect();
        let singles = gpu.iter().filter(|j| j.gpus == 1).count();
        let share = singles as f64 / gpu.len() as f64;
        assert!(share > 0.75, "Earth single-GPU share = {share}");
    }

    #[test]
    fn status_mix_close_to_fig7() {
        // Pool two clusters for stability at small scale.
        let cfg = small_cfg();
        let mut gpu_status = [0u64; 3];
        let mut cpu_status = [0u64; 3];
        for p in [venus_profile(), earth_profile()] {
            let t = generate(&p, &cfg).unwrap();
            for j in &t.jobs {
                let idx = match j.status {
                    JobStatus::Completed => 0,
                    JobStatus::Canceled => 1,
                    JobStatus::Failed => 2,
                };
                if j.is_gpu() {
                    gpu_status[idx] += 1;
                } else {
                    cpu_status[idx] += 1;
                }
            }
        }
        let gt: u64 = gpu_status.iter().sum();
        let ct: u64 = cpu_status.iter().sum();
        let g_complete = gpu_status[0] as f64 / gt as f64;
        let c_complete = cpu_status[0] as f64 / ct as f64;
        // Fig. 7a: GPU 62.4% completed, CPU 90.9% completed.
        assert!(
            (g_complete - 0.624).abs() < 0.10,
            "gpu complete {g_complete}"
        );
        assert!(
            (c_complete - 0.909).abs() < 0.06,
            "cpu complete {c_complete}"
        );
        assert!(c_complete > g_complete);
    }

    #[test]
    fn scale_spec_preserves_vc_floor() {
        let spec = preset(ClusterId::Saturn);
        let s = scale_spec(&spec, 0.03).unwrap();
        assert!(s.vcs.iter().all(|v| v.nodes >= 2));
        assert_eq!(s.nodes, s.vcs.iter().map(|v| v.nodes).sum::<u32>());
        assert!(scale_spec(&spec, 0.0).is_err());
        assert!(scale_spec(&spec, 1.5).is_err());
        assert!(scale_spec(&spec, f64::NAN).is_err());
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&venus_profile(), &small_cfg()).unwrap();
        let b = generate(&venus_profile(), &small_cfg()).unwrap();
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert_eq!(a.jobs[100], b.jobs[100]);
        assert_eq!(a.jobs.last(), b.jobs.last());
    }

    #[test]
    fn apportion_exact() {
        let counts = apportion(100, &[1.0, 2.0, 3.0, 0.0]);
        assert_eq!(counts.iter().sum::<u64>(), 100);
        assert_eq!(counts[3], 0);
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
    }

    #[test]
    fn completion_rate_decreases_with_gpu_demand() {
        let cfg = GeneratorConfig {
            scale: 0.1,
            seed: 7,
        };
        let t = generate(&venus_profile(), &cfg).unwrap();
        let rate = |lo: u32, hi: u32| {
            let sel: Vec<&JobRecord> = t
                .gpu_jobs()
                .filter(|j| j.gpus >= lo && j.gpus <= hi)
                .collect();
            sel.iter()
                .filter(|j| j.status == JobStatus::Completed)
                .count() as f64
                / sel.len().max(1) as f64
        };
        let small = rate(1, 4);
        let large = rate(32, 64);
        assert!(small > large + 0.1, "small={small} large={large}");
    }
}
