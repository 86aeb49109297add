//! Synthetic user population.
//!
//! Each cluster hosts 200–400 users (§3.3). Users belong to a class that
//! determines what they run; their activity follows a Zipf law so that a
//! small head of users dominates resource consumption (Fig. 8), and each
//! user owns a handful of recurrent *job templates* — named experiments that
//! get resubmitted with new run indices. Template recurrence is what makes
//! job duration predictable from (user, name, GPU demand) history, the core
//! premise of the QSSF service (§4.2.2).

use crate::cluster::ClusterSpec;
use crate::dist::{zipf_weights, Discrete, LogNormal};
use crate::types::{NameId, NamePool, UserId, VcId};
use crate::workload::{TemplateKind, WorkloadProfile};
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// Broad user archetypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UserClass {
    /// Product teams running large recurrent distributed training.
    Production,
    /// Researchers mixing medium training with exploration.
    Researcher,
    /// Students / newcomers: debug bursts and small jobs.
    Student,
    /// Data-pipeline owners: CPU preprocessing and automation scripts.
    Pipeline,
}

impl UserClass {
    /// All classes, in `WorkloadProfile::class_mix` order.
    pub const ALL: [UserClass; 4] = [
        UserClass::Production,
        UserClass::Researcher,
        UserClass::Student,
        UserClass::Pipeline,
    ];

    /// Relative GPU-submission activity multiplier of the class.
    fn gpu_activity(self) -> f64 {
        match self {
            UserClass::Production => 0.5,
            UserClass::Researcher => 1.0,
            UserClass::Student => 1.3,
            UserClass::Pipeline => 0.15,
        }
    }

    /// GPU template kinds and weights for the class.
    fn gpu_kinds(self) -> &'static [(TemplateKind, f64)] {
        match self {
            UserClass::Production => &[
                (TemplateKind::DistTrain, 0.42),
                (TemplateKind::Train, 0.33),
                (TemplateKind::Eval, 0.15),
                (TemplateKind::Debug, 0.10),
            ],
            UserClass::Researcher => &[
                (TemplateKind::Train, 0.40),
                (TemplateKind::Debug, 0.25),
                (TemplateKind::Eval, 0.22),
                (TemplateKind::DistTrain, 0.13),
            ],
            UserClass::Student => &[
                (TemplateKind::Debug, 0.46),
                (TemplateKind::Eval, 0.27),
                (TemplateKind::Train, 0.27),
            ],
            UserClass::Pipeline => &[(TemplateKind::Eval, 0.5), (TemplateKind::Debug, 0.5)],
        }
    }
}

/// A recurrent, named experiment owned by one user.
#[derive(Debug, Clone)]
pub struct JobTemplate {
    /// Interned base name; jobs synthesize `"<base>_<run>"`.
    pub name: NameId,
    pub kind: TemplateKind,
    /// Target VC (the owner's VC).
    pub vc: VcId,
    /// GPU-count values and picker (empty/unused for CPU kinds).
    pub gpu_values: Vec<u32>,
    pub gpu_picker: Option<Discrete>,
    /// Per-job duration distribution around the template median. The
    /// generator rescales `mu` during load calibration.
    pub duration: LogNormal,
    /// Cancellation/failure propensities (pre GPU-count adjustment).
    pub cancel: f64,
    pub fail: f64,
    /// Selection weight among the owner's templates of the same realm.
    pub weight: f64,
}

impl JobTemplate {
    /// Draw a GPU count (0 for CPU templates).
    pub fn sample_gpus<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match &self.gpu_picker {
            Some(p) => self.gpu_values[p.sample(rng)],
            None => 0,
        }
    }

    /// Expected GPU count (0 for CPU templates).
    pub fn mean_gpus(&self) -> f64 {
        match &self.gpu_picker {
            Some(p) => self
                .gpu_values
                .iter()
                .enumerate()
                .map(|(i, &g)| p.probability(i) * g as f64)
                .sum(),
            None => 0.0,
        }
    }
}

/// One synthetic user.
#[derive(Debug, Clone)]
pub struct UserProfile {
    pub id: UserId,
    pub class: UserClass,
    /// Home VC (each VC serves one group, §2.1).
    pub vc: VcId,
    /// Zipf activity weight for GPU submissions.
    pub gpu_activity: f64,
    /// Zipf activity weight for CPU submissions.
    pub cpu_activity: f64,
    /// Weight for 1-s query scripts (bots only).
    pub query_activity: f64,
    /// GPU templates (empty for pure-pipeline users).
    pub gpu_templates: Vec<JobTemplate>,
    /// CPU templates (preprocess and/or query).
    pub cpu_templates: Vec<JobTemplate>,
    /// True when the user's jobs are predominantly multi-GPU — drives which
    /// monthly submission profile they follow (Fig. 3).
    pub multi_gpu_user: bool,
}

const MODELS: &[&str] = &[
    "resnet18",
    "resnet50",
    "resnet101",
    "vgg16",
    "mobilenet_v2",
    "efficientnet_b3",
    "bert_base",
    "bert_large",
    "gpt2",
    "transformer_xl",
    "lstm_lm",
    "yolo_v3",
    "faster_rcnn",
    "mask_rcnn",
    "deeplab_v3",
    "unet",
    "pointnet",
    "dcgan",
    "stylegan2",
    "wav2vec",
    "deepspeech",
    "arcface",
    "retinaface",
    "hrnet",
    "st_gcn",
    "slowfast",
    "i3d",
    "crnn_ocr",
    "dbnet",
    "srgan",
];

const DATASETS: &[&str] = &[
    "imagenet",
    "cifar100",
    "coco",
    "ade20k",
    "kinetics400",
    "librispeech",
    "wmt14",
    "ms1m",
    "widerface",
    "cityscapes",
    "market1501",
    "nuscenes",
    "voc",
    "celeba",
    "lsun",
];

fn kind_verb(kind: TemplateKind, rng: &mut ChaCha12Rng) -> &'static str {
    let options: &[&str] = match kind {
        TemplateKind::Debug => &["debug", "test", "try"],
        TemplateKind::Eval => &["eval", "val", "infer"],
        TemplateKind::Train => &["train", "finetune"],
        TemplateKind::DistTrain => &["train_dist", "pretrain"],
        TemplateKind::Mega => &["pretrain_mega"],
        TemplateKind::Preprocess => &[
            "extract_frames",
            "resize_images",
            "decode_video",
            "pack_lmdb",
        ],
        TemplateKind::Query => &["query_state", "check_progress", "poll_nodes"],
    };
    options[rng.gen_range(0..options.len())]
}

/// Synthesize a plausible experiment name for `kind`.
pub fn template_name(kind: TemplateKind, user: UserId, rng: &mut ChaCha12Rng) -> String {
    let verb = kind_verb(kind, rng);
    let model = MODELS[rng.gen_range(0..MODELS.len())];
    let dataset = DATASETS[rng.gen_range(0..DATASETS.len())];
    let mut name = format!("{verb}_{model}_{dataset}");
    // Hyperparameter suffixes on ~40% of training names, mirroring real
    // sweep-style naming that the Levenshtein bucketizer must cope with.
    if matches!(kind, TemplateKind::Train | TemplateKind::DistTrain) && rng.gen_bool(0.4) {
        name.push_str(&format!("_lr{}", [1, 3, 5, 10][rng.gen_range(0..4usize)]));
    }
    if matches!(kind, TemplateKind::Query) {
        // Queries are fired by per-user automation scripts.
        name = format!("{name}_u{user}");
    }
    name
}

#[allow(clippy::too_many_arguments)]
/// Build a template of the given kind for `user` in `vc`.
///
/// `single_gpu_boost` multiplies the weight of the 1-GPU choice (Earth and
/// Philly run predominantly single-GPU jobs); `gpu_cap` drops choices above
/// the effective maximum for this template. Callers derive the cap from the
/// owner's VC capacity: groups with small VCs do not run jobs that would
/// monopolize the entire VC for days (the paper's large recurring jobs live
/// in the large VCs, Fig. 4) — except the `Mega` artifacts, which are
/// deliberately over-capacity.
pub fn make_template(
    kind: TemplateKind,
    user: UserId,
    vc: VcId,
    duration_scale: f64,
    single_gpu_boost: f64,
    gpu_cap: u32,
    fail_boost: f64,
    names: &mut NamePool,
    rng: &mut ChaCha12Rng,
) -> JobTemplate {
    let params = kind.params();
    let mut choices: Vec<(u32, f64)> = params
        .gpu_choices
        .iter()
        .filter(|&&(g, _)| g <= gpu_cap)
        .map(|&(g, w)| (g, if g == 1 { w * single_gpu_boost } else { w }))
        .collect();
    // Dropped over-cap weight folds onto the largest surviving choice
    // (instead of proportional renormalization, which would shift mass
    // toward small jobs): the job-size marginal of a scaled cluster stays
    // as close as its caps allow to the paper's scale-independent Fig. 6.
    let dropped: f64 = params
        .gpu_choices
        .iter()
        .filter(|&&(g, _)| g > gpu_cap)
        .map(|&(_, w)| w)
        .sum();
    if dropped > 0.0 {
        if let Some(largest) = choices.iter_mut().max_by_key(|c| c.0) {
            largest.1 += dropped;
        }
    }
    let (gpu_values, gpu_picker) = if choices.is_empty() {
        (Vec::new(), None)
    } else {
        let values: Vec<u32> = choices.iter().map(|c| c.0).collect();
        let weights: Vec<f64> = choices.iter().map(|c| c.1).collect();
        (values, Some(Discrete::new(&weights)))
    };
    // Template median drawn around the kind's median-of-medians.
    let spread = LogNormal::from_median(
        params.median_of_medians * duration_scale,
        params.median_sigma,
    );
    let median = spread.sample(rng).max(1.0);
    JobTemplate {
        name: names.intern(template_name(kind, user, rng)),
        kind,
        vc,
        gpu_values,
        gpu_picker,
        duration: LogNormal::from_median(median, params.per_job_sigma),
        cancel: params.base_cancel,
        fail: (params.base_fail * fail_boost).min(0.5),
        weight: 0.3 + rng.gen::<f64>(),
    }
}

/// Assign each user to a VC. Production users are steered to the largest
/// VCs and students to the tail, reproducing the positive correlation
/// between VC size/utilization and average GPU demand (Fig. 4).
fn assign_vc(class: UserClass, spec: &ClusterSpec, rng: &mut ChaCha12Rng) -> VcId {
    let mut order: Vec<usize> = (0..spec.num_vcs()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(spec.vcs[i].nodes));
    let n = order.len();
    let slice: &[usize] = match class {
        UserClass::Production => &order[..(n / 3).max(1)],
        UserClass::Researcher => &order[..(2 * n / 3).max(1)],
        UserClass::Student => &order[n / 4..],
        UserClass::Pipeline => &order[..],
    };
    // Weight by VC capacity within the allowed slice.
    let weights: Vec<f64> = slice.iter().map(|&i| spec.vcs[i].nodes as f64).collect();
    let picker = Discrete::new(&weights);
    slice[picker.sample(rng)] as VcId
}

/// Build the full user population for one cluster.
pub fn build_users(
    spec: &ClusterSpec,
    profile: &WorkloadProfile,
    names: &mut NamePool,
    rng: &mut ChaCha12Rng,
) -> Vec<UserProfile> {
    let n = profile.users;
    let class_picker = Discrete::new(&profile.class_mix);
    // Zipf ranks shuffled across users so rank is independent of class.
    let mut gpu_rank: Vec<f64> = zipf_weights(n, 1.05);
    let mut cpu_rank: Vec<f64> = zipf_weights(n, 1.9);
    shuffle(&mut gpu_rank, rng);
    shuffle(&mut cpu_rank, rng);

    let mut users = Vec::with_capacity(n);
    for id in 0..n as UserId {
        let class = UserClass::ALL[class_picker.sample(rng)];
        let vc = assign_vc(class, spec, rng);

        // GPU templates. Demands are capped relative to the home VC: at
        // most half the VC (never below 8 GPUs, one full node), so tiny
        // VCs host small jobs and the big recurrent jobs live in big VCs.
        let vc_gpus = spec.vcs[vc as usize].nodes * spec.gpus_per_node;
        let effective_cap = profile.gpu_cap.min((vc_gpus / 2).max(8));
        let kinds = class.gpu_kinds();
        let kind_weights: Vec<f64> = kinds
            .iter()
            .map(|&(k, w)| {
                if k == TemplateKind::DistTrain {
                    w * profile.dist_damp
                } else {
                    w
                }
            })
            .collect();
        let kind_picker = Discrete::new(&kind_weights);
        let n_templates = rng.gen_range(2..=6);
        let gpu_templates: Vec<JobTemplate> = (0..n_templates)
            .map(|_| {
                let kind = kinds[kind_picker.sample(rng)].0;
                make_template(
                    kind,
                    id,
                    vc,
                    profile.duration_scale,
                    profile.single_gpu_boost,
                    effective_cap,
                    profile.fail_boost,
                    names,
                    rng,
                )
            })
            .collect();

        // CPU templates: Pipeline users always; ~18% of other users dabble
        // (≈25% of users conduct CPU tasks overall, §3.3).
        let mut cpu_templates = Vec::new();
        let mut cpu_activity = 0.0;
        let mut query_activity = 0.0;
        let is_pipeline = class == UserClass::Pipeline;
        if profile.cpu_jobs > 0 && (is_pipeline || rng.gen_bool(0.18)) {
            let n_cpu = if is_pipeline { rng.gen_range(2..=4) } else { 1 };
            for _ in 0..n_cpu {
                cpu_templates.push(make_template(
                    TemplateKind::Preprocess,
                    id,
                    vc,
                    1.0,
                    1.0,
                    profile.gpu_cap,
                    1.0,
                    names,
                    rng,
                ));
            }
            cpu_activity = cpu_rank[id as usize] * if is_pipeline { 8.0 } else { 1.0 };
            // Pipeline users also run automation query scripts.
            if is_pipeline {
                cpu_templates.push(make_template(
                    TemplateKind::Query,
                    id,
                    vc,
                    1.0,
                    1.0,
                    profile.gpu_cap,
                    1.0,
                    names,
                    rng,
                ));
                query_activity = cpu_rank[id as usize];
            }
        }

        let mean_gpus: f64 = {
            let total_w: f64 = gpu_templates.iter().map(|t| t.weight).sum();
            gpu_templates
                .iter()
                .map(|t| t.weight * t.mean_gpus())
                .sum::<f64>()
                / total_w
        };

        users.push(UserProfile {
            id,
            class,
            vc,
            gpu_activity: gpu_rank[id as usize] * class.gpu_activity(),
            cpu_activity,
            query_activity,
            gpu_templates,
            cpu_templates,
            multi_gpu_user: mean_gpus >= 3.0,
        });
    }
    users
}

/// Fisher–Yates shuffle (avoids depending on `rand::seq` slice ext).
fn shuffle<T>(v: &mut [T], rng: &mut ChaCha12Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::earth;
    use crate::workload::earth_profile;
    use rand::SeedableRng;

    fn population() -> (Vec<UserProfile>, NamePool) {
        let spec = earth();
        let profile = earth_profile();
        let mut names = NamePool::new();
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let users = build_users(&spec, &profile, &mut names, &mut rng);
        (users, names)
    }

    #[test]
    fn population_size_and_classes() {
        let (users, _) = population();
        assert_eq!(users.len(), earth_profile().users);
        let students = users
            .iter()
            .filter(|u| u.class == UserClass::Student)
            .count();
        // Earth is student-heavy (65% mix).
        assert!(students as f64 / users.len() as f64 > 0.5);
    }

    #[test]
    fn every_user_has_gpu_templates_in_own_vc() {
        let (users, _) = population();
        for u in &users {
            assert!(!u.gpu_templates.is_empty());
            assert!(u.gpu_templates.iter().all(|t| t.vc == u.vc));
        }
    }

    #[test]
    fn cpu_users_are_a_minority_with_skewed_activity() {
        let (users, _) = population();
        let cpu_users: Vec<&UserProfile> = users.iter().filter(|u| u.cpu_activity > 0.0).collect();
        let share = cpu_users.len() as f64 / users.len() as f64;
        assert!(share > 0.10 && share < 0.45, "cpu-user share {share}");
        // Top-5% CPU users should dominate CPU activity (paper: ~90% of
        // CPU time in the top 5% of users).
        let mut acts: Vec<f64> = cpu_users.iter().map(|u| u.cpu_activity).collect();
        acts.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = acts.iter().sum();
        let top = (users.len() as f64 * 0.05).ceil() as usize;
        let head: f64 = acts.iter().take(top).sum();
        assert!(head / total > 0.7, "top-5% share {}", head / total);
    }

    #[test]
    fn template_names_are_plausible() {
        let (users, names) = population();
        let t = &users[0].gpu_templates[0];
        let base = names.base(t.name);
        assert!(base.contains('_'), "{base}");
        assert!(base.is_ascii());
    }

    #[test]
    fn template_gpu_sampling_matches_choices() {
        let (users, _) = population();
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        for u in users.iter().take(20) {
            for t in &u.gpu_templates {
                let g = t.sample_gpus(&mut rng);
                assert!(t.gpu_values.contains(&g));
                assert!(t.mean_gpus() >= 1.0);
            }
            for t in &u.cpu_templates {
                assert_eq!(t.sample_gpus(&mut rng), 0);
            }
        }
    }

    #[test]
    fn production_users_sit_in_large_vcs() {
        let spec = earth();
        let (users, _) = population();
        let mut sizes: Vec<u32> = spec.vcs.iter().map(|v| v.nodes).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        let avg_nodes = |class: UserClass| {
            let xs: Vec<f64> = users
                .iter()
                .filter(|u| u.class == class)
                .map(|u| spec.vcs[u.vc as usize].nodes as f64)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(avg_nodes(UserClass::Production) > median as f64);
        assert!(avg_nodes(UserClass::Production) > avg_nodes(UserClass::Student));
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = population();
        let (b, _) = population();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.vc, y.vc);
            assert_eq!(x.class, y.class);
            assert_eq!(x.gpu_templates.len(), y.gpu_templates.len());
        }
    }
}
