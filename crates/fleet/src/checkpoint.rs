//! Crash-consistent auto-checkpointing: a bounded ring of kernel
//! snapshot generations plus an admission journal, kept in memory for
//! supervisor restarts and optionally mirrored to disk (temp-file +
//! atomic rename) so a whole fleet process can be rebuilt after death.
//!
//! ## Recovery model
//!
//! Restart = restore the newest generation that still decodes cleanly +
//! replay the admission journal segments recorded after it. Every
//! generation is a kernel snapshot frame ([`ByteWriter::frame`]),
//! sealed with an XXH64 checksum at write time, so a bit-flipped or
//! truncated blob is *detected* (not silently restored) and recovery
//! falls back to the previous generation. Journal segments record
//! admitted jobs **post-clamp** in admission order, which is exactly the
//! information the deterministic kernel needs to re-produce the
//! interrupted run bit for bit (batched admission == one-shot is pinned
//! by the kernel equivalence suite).
//!
//! A checkpoint costs one encode pass over the kernel state
//! ([`Simulator::snapshot_into`], straight from the kernel's arrays into
//! the buffer of the generation the ring last evicted) plus the frame's
//! checksum pass at memory speed.
//!
//! ## Disk layout
//!
//! With [`CheckpointConfig::dir`] set, generation `i` lands in slot
//! `i % generations`: `<cluster>-slot<k>.ckpt` (one `HELCKPT1` frame
//! holding the cluster, the generation index, its clock and the kernel
//! frame; written to a `.tmp` and atomically renamed) and
//! `<cluster>-slot<k>.journal` (append-only `HELJRNL2` frames, one per
//! admitted batch, each tagged with the generation index it extends — a
//! torn tail record is dropped at load, never replayed). Both are frames
//! at on-disk format version 3 ([`CHECKPOINT_VERSION`]); a directory of
//! an older version is refused by its version rather than read.
//! Monotonically increasing generation indices make slot reuse
//! unambiguous: the loader orders slots by the index each one carries.
//!
//! In-process drains are exactly-once across restarts (per-generation
//! delivered-outcome counters suppress re-delivery); disk recovery via
//! [`Fleet::recover`](crate::Fleet::recover) is at-least-once, because
//! delivered counters die with the process.

use helios_sim::{ByteReader, ByteWriter, SimJob, SimSnapshot, Simulator, JOB_WIRE_BYTES};
use helios_trace::{ClusterId, HeliosError, HeliosResult};
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Frame magic of an on-disk checkpoint slot file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"HELCKPT1";
/// Frame magic of an admission-journal record.
pub const JOURNAL_MAGIC: [u8; 8] = *b"HELJRNL2";
/// Frame version of slot files and journal records (3: both are
/// checksummed frames; versions 1 and 2 are refused by number).
pub const CHECKPOINT_VERSION: u32 = 3;

/// Auto-checkpointing knobs of a [`Fleet`](crate::Fleet) worker.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Take a checkpoint every N admission cycles ([`Fleet::advance`]
    /// calls). `0` disables periodic checkpoints: only the launch
    /// generation (and post-recovery re-baselines) are retained.
    ///
    /// [`Fleet::advance`]: crate::Fleet::advance
    pub every_cycles: u64,
    /// Bound of the generation ring (`>= 1`). Older generations are
    /// evicted; a corrupt newest generation falls back to the previous
    /// retained one.
    pub generations: usize,
    /// Mirror generations and journal frames to this directory via
    /// temp-file + atomic rename, enabling
    /// [`Fleet::recover`](crate::Fleet::recover) after process death.
    /// `None` keeps the ring in memory only (supervisor restarts still
    /// work).
    pub dir: Option<PathBuf>,
}

impl Default for CheckpointConfig {
    /// Checkpoint every 8 admission cycles, keep 3 generations, memory
    /// only.
    fn default() -> Self {
        CheckpointConfig {
            every_cycles: 8,
            generations: 3,
            dir: None,
        }
    }
}

impl CheckpointConfig {
    /// Override the checkpoint cadence (admission cycles per checkpoint).
    pub fn every_cycles(mut self, cycles: u64) -> Self {
        self.every_cycles = cycles;
        self
    }

    /// Override the generation-ring bound.
    pub fn generations(mut self, generations: usize) -> Self {
        self.generations = generations;
        self
    }

    /// Mirror generations to `dir` (created on first write).
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Reject non-sensical rings.
    pub fn validate(&self) -> HeliosResult<()> {
        if self.generations == 0 {
            return Err(HeliosError::invalid_config(
                "checkpoint.generations",
                "the checkpoint ring needs at least one generation",
            ));
        }
        Ok(())
    }
}

/// One retained checkpoint generation.
#[derive(Debug, Clone)]
pub(crate) struct Generation {
    /// Monotonically increasing generation index (never reused, even
    /// after a fallback).
    pub index: u64,
    /// Virtual clock at snapshot time (`i64::MIN` before any activity).
    pub clock: i64,
    /// Kernel snapshot frame ([`SimSnapshot::to_bytes`]); its checksum
    /// makes recovery refuse a damaged copy instead of restoring it.
    pub bytes: Vec<u8>,
    /// Jobs admitted (post-clamp, admission order) after this snapshot
    /// and before the next one.
    pub journal: Vec<SimJob>,
    /// Outcomes delivered to clients while this generation was newest —
    /// a replay from this generation re-produces exactly these, so
    /// recovery suppresses their re-delivery.
    pub drained: u64,
}

/// Everything a supervisor needs to rebuild a worker after a crash.
#[derive(Debug)]
pub(crate) struct Recovery {
    /// The newest generation that decoded cleanly.
    pub snapshot: SimSnapshot,
    /// Journal segments recorded after that generation, concatenated in
    /// admission order.
    pub replay: Vec<SimJob>,
    /// Leading re-produced outcomes to drop before the next delivery.
    pub suppress: u64,
    /// Index of the generation restored from.
    pub generation: u64,
    /// Generations skipped because they were corrupt or truncated.
    pub fallbacks: u32,
}

/// Walk `ring` newest-to-oldest, returning the first generation that
/// decodes (checksum included), plus the journal/suppress suffix.
pub(crate) fn recover_from(ring: &VecDeque<Generation>, cluster: &str) -> HeliosResult<Recovery> {
    for (i, g) in ring.iter().enumerate().rev() {
        let Ok(snapshot) = SimSnapshot::from_bytes(&g.bytes) else {
            continue;
        };
        let mut replay = Vec::new();
        let mut suppress = 0;
        for gg in ring.iter().skip(i) {
            replay.extend_from_slice(&gg.journal);
            suppress += gg.drained;
        }
        return Ok(Recovery {
            snapshot,
            replay,
            suppress,
            generation: g.index,
            fallbacks: (ring.len() - 1 - i) as u32,
        });
    }
    Err(HeliosError::snapshot(
        "recovering fleet worker",
        format!("{cluster}: no retained checkpoint generation decodes cleanly"),
    ))
}

/// The per-worker checkpoint ring + admission journal. Lives on the
/// worker thread; the supervisor consults it on every restart.
pub(crate) struct CheckpointManager {
    cluster: ClusterId,
    cfg: CheckpointConfig,
    ring: VecDeque<Generation>,
    next_index: u64,
    /// The buffer of the generation the ring last evicted; the next
    /// generation is encoded into it.
    spare: Vec<u8>,
    /// Checkpoint blobs written and total write nanoseconds (snapshot
    /// serialization + checksum + disk mirror), for the resilience bench
    /// records.
    writes: u64,
    write_nanos: u64,
}

impl CheckpointManager {
    /// Seed the ring with one launch generation (`resume_index`
    /// continues the index sequence after a disk recovery), mirroring it
    /// to disk when configured.
    pub fn new(
        cluster: ClusterId,
        cfg: CheckpointConfig,
        resume_index: u64,
        sim: &Simulator<'_>,
    ) -> HeliosResult<Self> {
        cfg.validate()?;
        let mut m = CheckpointManager {
            cluster,
            cfg,
            ring: VecDeque::new(),
            next_index: resume_index,
            spare: Vec::new(),
            writes: 0,
            write_nanos: 0,
        };
        m.checkpoint(sim)?;
        Ok(m)
    }

    /// True when the periodic cadence says cycle `cycle` should end with
    /// a checkpoint.
    pub fn due(&self, cycle: u64) -> bool {
        // `is_multiple_of(0)` is false for every real cycle (they start
        // at 1), which is exactly the "0 disables the cadence" contract.
        cycle.is_multiple_of(self.cfg.every_cycles)
    }

    /// Encode `sim` as a new newest generation, mirror it to disk when
    /// configured, and evict past the ring bound. Returns the generation
    /// index.
    pub fn checkpoint(&mut self, sim: &Simulator<'_>) -> HeliosResult<u64> {
        // guard: allow(determinism, reason = "checkpoint write-time telemetry for FleetHealth; never feeds kernel state")
        let t0 = std::time::Instant::now();
        let mut bytes = std::mem::take(&mut self.spare);
        sim.snapshot_into(&mut bytes);
        let clock = sim.now();
        let index = self.next_index;
        self.next_index += 1;
        if let Some(dir) = self.cfg.dir.clone() {
            self.write_slot(&dir, index, clock, &bytes)?;
        }
        self.ring.push_back(Generation {
            index,
            clock,
            bytes,
            journal: Vec::new(),
            drained: 0,
        });
        // Evict only now that the new generation is in the ring: a failed
        // encode or disk write above leaves every retained one intact.
        while self.ring.len() > self.cfg.generations {
            if let Some(evicted) = self.ring.pop_front() {
                self.spare = evicted.bytes;
            }
        }
        self.writes += 1;
        self.write_nanos += t0.elapsed().as_nanos() as u64;
        Ok(index)
    }

    /// Journal one admitted batch (post-clamp, admission order) against
    /// the newest generation, appending one record frame to its slot
    /// journal when disk mirroring is on.
    pub fn note_admitted(&mut self, jobs: &[SimJob]) -> HeliosResult<()> {
        if jobs.is_empty() {
            return Ok(());
        }
        let Some(newest) = self.ring.back_mut() else {
            // Structurally unreachable (the ring is seeded at construction
            // and eviction always leaves the newest generation), but a
            // typed error beats a panic on the supervised worker path.
            return Err(HeliosError::snapshot(
                "journaling admitted jobs",
                "checkpoint ring is empty",
            ));
        };
        let index = newest.index;
        newest.journal.extend_from_slice(jobs);
        if let Some(dir) = self.cfg.dir.clone() {
            self.append_journal(&dir, index, jobs)?;
        }
        Ok(())
    }

    /// Record `delivered` outcomes handed to a client (attributed to the
    /// newest generation, whose replay would re-produce them).
    pub fn note_drained(&mut self, delivered: u64) {
        if let Some(newest) = self.ring.back_mut() {
            newest.drained += delivered;
        }
    }

    /// Recover from the newest clean generation (see [`recover_from`]).
    pub fn recover(&self) -> HeliosResult<Recovery> {
        recover_from(&self.ring, self.cluster.name())
    }

    /// Drop every generation newer than `index` (they failed recovery),
    /// folding their journal segments into generation `index` so a later
    /// fallback to it still replays every admitted job. The survivor's
    /// delivered counter is zeroed: the caller re-baselines with a fresh
    /// checkpoint and re-attributes the suppressed outcomes to it.
    pub fn collapse_to(&mut self, index: u64) {
        // The target came out of `recover()` on this very ring; an
        // unknown index (unreachable in practice) is ignored rather than
        // panicking on the supervised recovery path.
        let Some(pos) = self.ring.iter().position(|g| g.index == index) else {
            return;
        };
        let dropped: Vec<Generation> = self.ring.drain(pos + 1..).collect();
        let Some(survivor) = self.ring.back_mut() else {
            return;
        };
        for d in dropped {
            survivor.journal.extend(d.journal);
        }
        survivor.drained = 0;
    }

    /// Index of the newest generation.
    pub fn newest_index(&self) -> u64 {
        self.ring.back().map_or(0, |g| g.index)
    }

    /// Virtual clock of the newest generation.
    pub fn newest_clock(&self) -> i64 {
        self.ring.back().map_or(i64::MIN, |g| g.clock)
    }

    /// Jobs journaled since the newest checkpoint.
    pub fn journal_len(&self) -> usize {
        self.ring.back().map_or(0, |g| g.journal.len())
    }

    /// Checkpoint write statistics: `(blobs written, total nanos)`.
    pub fn write_stats(&self) -> (u64, u64) {
        (self.writes, self.write_nanos)
    }

    /// Chaos hook: corrupt the newest generation's in-memory frame (its
    /// checksum no longer matches, so recovery *detects* the damage and
    /// falls back). Even seeds flip one bit; odd seeds truncate.
    pub fn corrupt_newest(&mut self, seed: u64) {
        let Some(g) = self.ring.back_mut() else {
            return;
        };
        if g.bytes.is_empty() {
            return;
        }
        if seed.is_multiple_of(2) {
            let bit = (seed >> 1) as usize % (g.bytes.len() * 8);
            // guard: allow(panic, reason = "bit < len*8 by the modulo above, so bit/8 < len; bytes checked non-empty")
            g.bytes[bit / 8] ^= 1 << (bit % 8);
        } else {
            let keep = (seed >> 1) as usize % g.bytes.len();
            g.bytes.truncate(keep);
        }
    }

    fn write_slot(&mut self, dir: &Path, index: u64, clock: i64, bytes: &[u8]) -> HeliosResult<()> {
        std::fs::create_dir_all(dir)
            .map_err(|e| HeliosError::io(format!("creating {}", dir.display()), &e))?;
        let slot = index % self.cfg.generations as u64;
        let frame = encode_slot(self.cluster, index, clock, bytes);
        write_atomic(&ckpt_path(dir, self.cluster, slot), &frame)?;
        // A fresh generation starts with an empty journal: reset the
        // slot's journal file so stale records from the evicted
        // generation cannot be mistaken for this one's (records are also
        // index-tagged as a second guard).
        write_atomic(&journal_path(dir, self.cluster, slot), &[])?;
        Ok(())
    }

    fn append_journal(&self, dir: &Path, index: u64, jobs: &[SimJob]) -> HeliosResult<()> {
        let slot = index % self.cfg.generations as u64;
        let path = journal_path(dir, self.cluster, slot);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| HeliosError::io(format!("opening {}", path.display()), &e))?;
        f.write_all(&encode_record(index, jobs))
            .map_err(|e| HeliosError::io(format!("appending {}", path.display()), &e))?;
        Ok(())
    }
}

fn ckpt_path(dir: &Path, cluster: ClusterId, slot: u64) -> PathBuf {
    dir.join(format!("{}-slot{slot}.ckpt", cluster.name()))
}

fn journal_path(dir: &Path, cluster: ClusterId, slot: u64) -> PathBuf {
    dir.join(format!("{}-slot{slot}.journal", cluster.name()))
}

/// Write `bytes` to `path` crash-consistently: a sibling `.tmp` file is
/// written, flushed, and atomically renamed over the destination — a
/// reader never observes a half-written file.
fn write_atomic(path: &Path, bytes: &[u8]) -> HeliosResult<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| HeliosError::io(format!("creating {}", tmp.display()), &e))?;
        f.write_all(bytes)
            .map_err(|e| HeliosError::io(format!("writing {}", tmp.display()), &e))?;
        f.sync_all()
            .map_err(|e| HeliosError::io(format!("flushing {}", tmp.display()), &e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        HeliosError::io(
            format!("renaming {} over {}", tmp.display(), path.display()),
            &e,
        )
    })?;
    Ok(())
}

/// Read `path`, treating a missing file as `None`; any other failure is
/// a typed I/O error naming the path.
fn read_if_present(path: &Path) -> HeliosResult<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(HeliosError::io(format!("reading {}", path.display()), &e)),
    }
}

/// One slot file: a `HELCKPT1` frame holding the cluster, the generation
/// index, its clock and the kernel frame.
fn encode_slot(cluster: ClusterId, index: u64, clock: i64, blob: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    // The header, the prefixed kernel frame and the closing checksum.
    w.reserve(64 + blob.len());
    w.frame(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, |w| {
        w.u8(crate::config::cluster_code(cluster));
        w.u64(index);
        w.i64(clock);
        w.bytes(blob);
    });
    w.into_bytes()
}

/// Decode one slot file into `(generation index, clock, kernel frame)`.
/// A frame of another version is refused by number; a damaged frame or
/// another cluster's slot is a typed [`HeliosError::Snapshot`] error.
fn decode_slot(bytes: &[u8], cluster: ClusterId) -> HeliosResult<(u64, i64, Vec<u8>)> {
    let mut input = ByteReader::new(bytes, "decoding checkpoint slot");
    let mut r = input.frame(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    input.finish()?;
    let code = r.u8()?;
    if code != crate::config::cluster_code(cluster) {
        return Err(r.err(format!(
            "generation belongs to cluster code {code}, not {}",
            cluster.name()
        )));
    }
    let index = r.u64()?;
    let clock = r.i64()?;
    let blob = r.bytes()?;
    r.finish()?;
    Ok((index, clock, blob))
}

/// One journal record: a `HELJRNL2` frame holding the generation index
/// it extends and the admitted jobs.
fn encode_record(index: u64, jobs: &[SimJob]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.frame(&JOURNAL_MAGIC, CHECKPOINT_VERSION, |w| {
        w.u64(index);
        w.u64(jobs.len() as u64);
        for job in jobs {
            w.job(job);
        }
    });
    w.into_bytes()
}

/// The journal record at `journal`'s position: `(generation index, jobs)`.
fn decode_record(journal: &mut ByteReader<'_>) -> HeliosResult<(u64, Vec<SimJob>)> {
    let mut r = journal.frame(&JOURNAL_MAGIC, CHECKPOINT_VERSION)?;
    let index = r.u64()?;
    let n = r.len(JOB_WIRE_BYTES)?;
    let jobs = (0..n).map(|_| r.job()).collect::<HeliosResult<Vec<_>>>()?;
    r.finish()?;
    Ok((index, jobs))
}

/// Parse an append-only journal into its records. Parsing stops at the
/// first record that does not decode (the crash-consistency contract: an
/// interrupted append loses at most its own record, never an earlier
/// one).
fn decode_journal(bytes: &[u8]) -> Vec<(u64, Vec<SimJob>)> {
    let mut journal = ByteReader::new(bytes, "decoding journal record");
    let mut records = Vec::new();
    while let Ok(record) = decode_record(&mut journal) {
        records.push(record);
    }
    records
}

/// Load a cluster's retained generations from disk, oldest to newest,
/// attaching each generation's journal segments (records tagged with a
/// generation index that no retained slot explains extend the youngest
/// older generation, preserving admission order). Returns the ring and
/// the next free generation index. Slots that do not decode are skipped;
/// when none decodes, the error carries the reason the first was skipped
/// (an older-version directory is refused by its version, not as
/// "missing"). A slot or journal file that exists but cannot be read is
/// a typed I/O error, never an empty journal.
pub(crate) fn load_ring(
    dir: &Path,
    cluster: ClusterId,
    cfg: &CheckpointConfig,
) -> HeliosResult<(VecDeque<Generation>, u64)> {
    cfg.validate()?;
    let mut gens: Vec<Generation> = Vec::new();
    let mut records: Vec<(u64, Vec<SimJob>)> = Vec::new();
    let mut first_skip: Option<(PathBuf, HeliosError)> = None;
    for slot in 0..cfg.generations as u64 {
        let cpath = ckpt_path(dir, cluster, slot);
        // A corrupt slot could only occupy the ring if we could say where
        // it belongs — without a trusted decoded index we must drop it,
        // so decode failures are skipped here.
        if let Some(bytes) = read_if_present(&cpath)? {
            match decode_slot(&bytes, cluster) {
                Ok((index, clock, blob)) => gens.push(Generation {
                    index,
                    clock,
                    bytes: blob,
                    journal: Vec::new(),
                    drained: 0,
                }),
                Err(e) => {
                    first_skip.get_or_insert((cpath, e));
                }
            }
        }
        if let Some(bytes) = read_if_present(&journal_path(dir, cluster, slot))? {
            records.extend(decode_journal(&bytes));
        }
    }
    if gens.is_empty() {
        let found = format!(
            "{}: no checkpoint generation found under {}",
            cluster.name(),
            dir.display()
        );
        return Err(HeliosError::snapshot(
            "recovering fleet from disk",
            match first_skip {
                Some((path, e)) => format!("{found}; {} was skipped: {e}", path.display()),
                None => found,
            },
        ));
    }
    gens.sort_by_key(|g| g.index);
    let next_index = gens.last().map_or(0, |g| g.index) + 1;
    // Journal records replay in generation-index order; each segment is
    // attached to the newest retained generation whose index is <= the
    // record's tag (records tagged past the newest retained generation
    // belong to an evicted-then-corrupted slot's successor and still
    // extend the newest survivor).
    records.sort_by_key(|(index, _)| *index);
    for (index, jobs) in records {
        let slot = match gens.iter_mut().rev().find(|g| g.index <= index) {
            Some(g) => g,
            // Records older than every retained generation were already
            // absorbed into those snapshots; skip them.
            None => continue,
        };
        slot.journal.extend(jobs);
    }
    Ok((gens.into(), next_index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_sim::{xxh64, FaultConfig, Policy};

    fn job(id: u64) -> SimJob {
        SimJob {
            id,
            vc: 0,
            gpus: 1,
            submit: id as i64,
            duration: 60,
            priority: 0.0,
        }
    }

    fn kernel(cluster: ClusterId) -> Simulator<'static> {
        Simulator::new(&helios_trace::preset(cluster), Policy::Fifo.build())
    }

    /// A Venus kernel halfway through `n` one-GPU jobs: its blob holds
    /// finished, running and pending work.
    fn loaded_venus(n: u64, faults: bool) -> Simulator<'static> {
        let mut sim = kernel(ClusterId::Venus);
        if faults {
            sim.enable_faults(&FaultConfig::with_mtbf_hours(24.0))
                .expect("valid fault config");
        }
        let jobs: Vec<SimJob> = (0..n).map(job).collect();
        sim.push_jobs(&jobs).expect("valid jobs");
        sim.run_until(n as i64 / 2);
        sim
    }

    fn newest_bytes(m: &CheckpointManager) -> &[u8] {
        m.ring.back().map_or(&[], |g| &g.bytes)
    }

    #[test]
    fn generations_encode_into_recycled_buffers_byte_identically() {
        let cfg = CheckpointConfig::default().generations(1);
        let big = loaded_venus(256, false);
        let mut m = CheckpointManager::new(ClusterId::Venus, cfg, 0, &big).expect("seeded");
        // Evicting generation 0 leaves its (longer) buffer as the spare.
        m.checkpoint(&big).expect("gen 1");
        for sim in [loaded_venus(16, false), loaded_venus(64, true)] {
            let spare = m.spare.len();
            m.checkpoint(&sim).expect("recycled generation");
            let want = sim.snapshot().to_bytes();
            assert!(spare > want.len(), "the recycled buffer held a longer blob");
            assert_eq!(newest_bytes(&m), want);
        }
        let recovered = m.recover().expect("clean generation");
        assert!(recovered.snapshot.fault.is_some());
        m.checkpoint(&big).expect("grows past the spare");
        assert_eq!(newest_bytes(&m), big.snapshot().to_bytes());
        let recovered = m.recover().expect("clean generation");
        assert!(recovered.snapshot.fault.is_none());
    }

    #[test]
    fn ring_is_bounded_and_journals_fold_on_collapse() {
        let cfg = CheckpointConfig::default().generations(2).every_cycles(1);
        let sim = kernel(ClusterId::Venus);
        let mut m = CheckpointManager::new(ClusterId::Venus, cfg, 0, &sim).expect("seeded");
        m.note_admitted(&[job(0), job(1)]).expect("in-memory");
        m.checkpoint(&sim).expect("gen 1");
        m.note_admitted(&[job(2)]).expect("in-memory");
        m.note_drained(3);
        assert_eq!(m.newest_index(), 1);
        assert_eq!(m.journal_len(), 1);
        // Corrupt newest: recovery must fall back to... nothing newer
        // than generation 0, which was evicted? No: ring holds {0, 1}.
        m.corrupt_newest(4); // even seed: bit flip
        let err_free = m.recover().expect("generation 0 still clean");
        assert_eq!(err_free.generation, 0);
        assert_eq!(err_free.fallbacks, 1);
        assert_eq!(err_free.suppress, 3);
        // Replay = journal(gen0) + journal(gen1), admission order.
        let ids: Vec<u64> = err_free.replay.iter().map(|j| j.id).collect();
        assert_eq!(ids, [0, 1, 2]);
        m.collapse_to(0);
        assert_eq!(m.newest_index(), 0);
        assert_eq!(m.journal_len(), 3, "dropped journals folded in");
        // Fresh re-baseline keeps monotone indices.
        assert_eq!(m.checkpoint(&sim).expect("gen 2"), 2);
    }

    #[test]
    fn truncation_is_detected_like_bit_flips() {
        let cfg = CheckpointConfig::default();
        let sim = kernel(ClusterId::Earth);
        let mut m = CheckpointManager::new(ClusterId::Earth, cfg, 7, &sim).expect("seeded");
        assert_eq!(m.newest_index(), 7);
        m.corrupt_newest(9); // odd seed: truncate
        let err = m.recover().expect_err("sole generation is corrupt");
        assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "helios-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_ring_round_trips_with_torn_journal_tail() {
        let dir = temp_dir("test");
        let cfg = CheckpointConfig::default().generations(2).dir(&dir);
        let sim = kernel(ClusterId::Saturn);
        let mut m =
            CheckpointManager::new(ClusterId::Saturn, cfg.clone(), 0, &sim).expect("seeded");
        m.note_admitted(&[job(10), job(11)]).expect("journaled");
        m.checkpoint(&sim).expect("gen 1");
        m.note_admitted(&[job(12)]).expect("journaled");

        // Tear the newest journal's tail: append a copy of its record
        // that stops one byte short of the checksum's end.
        let jpath = journal_path(&dir, ClusterId::Saturn, 1);
        let mut torn = std::fs::read(&jpath).expect("journal exists");
        let clean_len = torn.len();
        torn.extend_from_within(..clean_len - 1);
        std::fs::write(&jpath, &torn).expect("tear applied");

        let (ring, next) = load_ring(&dir, ClusterId::Saturn, &cfg).expect("ring loads");
        assert_eq!(next, 2);
        assert_eq!(ring.len(), 2);
        assert_eq!(
            ring[0].journal.iter().map(|j| j.id).collect::<Vec<_>>(),
            [10, 11]
        );
        assert_eq!(
            ring[1].journal.iter().map(|j| j.id).collect::<Vec<_>>(),
            [12]
        );
        // The torn tail was dropped, not propagated.
        assert_eq!(
            std::fs::read(&jpath).expect("journal exists").len(),
            torn.len()
        );
        assert!(clean_len < torn.len());

        // Corrupt the newest generation file on disk: loading keeps the
        // older slot and recovery falls back to it.
        let cpath = ckpt_path(&dir, ClusterId::Saturn, 1);
        let mut cbytes = std::fs::read(&cpath).expect("ckpt exists");
        let mid = cbytes.len() / 2;
        cbytes[mid] ^= 0xFF;
        std::fs::write(&cpath, &cbytes).expect("corruption applied");
        let (ring, _) = load_ring(&dir, ClusterId::Saturn, &cfg).expect("ring loads");
        assert_eq!(ring.len(), 1, "corrupt slot dropped");
        assert_eq!(ring[0].index, 0);
        // Its replay still carries every admitted job, in order.
        assert_eq!(
            ring[0].journal.iter().map(|j| j.id).collect::<Vec<_>>(),
            [10, 11, 12],
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_two_directory_is_refused_by_name() {
        // A version-2 slot: the same header layout, then an XXH64 trailer
        // that is never read, because the version is checked first.
        let dir = temp_dir("v2");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut w = ByteWriter::new();
        w.raw(&CHECKPOINT_MAGIC);
        w.u32(2);
        w.u8(crate::config::cluster_code(ClusterId::Venus));
        w.u64(0);
        w.i64(i64::MIN);
        w.bytes(&kernel(ClusterId::Venus).snapshot().to_bytes());
        w.u64(0);
        std::fs::write(ckpt_path(&dir, ClusterId::Venus, 0), w.into_bytes()).expect("v2 slot");

        let config = crate::FleetConfig::new()
            .with_cluster(crate::ClusterConfig::new(ClusterId::Venus, Policy::Fifo))
            .with_checkpoint(CheckpointConfig::default().dir(&dir));
        let Err(err) = crate::Fleet::recover(&config) else {
            panic!("a v2 directory must be refused");
        };
        assert!(matches!(err, HeliosError::Snapshot { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("HELCKPT1 version 2 "), "{msg}");
        assert!(msg.contains("slot0.ckpt"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_journal_is_an_io_error_not_an_empty_one() {
        let dir = temp_dir("unreadable");
        let config = crate::FleetConfig::new()
            .with_cluster(crate::ClusterConfig::new(ClusterId::Venus, Policy::Fifo))
            .with_checkpoint(CheckpointConfig::default().every_cycles(0).dir(&dir));
        let fleet = crate::Fleet::launch(&config).expect("launch");
        for id in 0..10 {
            fleet.submit(ClusterId::Venus, job(id)).expect("accepted");
        }
        fleet.advance(0).expect("admitted and journaled");
        drop(fleet);
        let jpath = journal_path(&dir, ClusterId::Venus, 0);
        assert!(std::fs::metadata(&jpath).expect("journal").len() > 0);
        std::fs::remove_file(&jpath).expect("journal removed");
        std::fs::create_dir(&jpath).expect("a directory in its place");

        let Err(err) = crate::Fleet::recover(&config) else {
            panic!("an unreadable journal must not recover as empty");
        };
        assert!(matches!(err, HeliosError::Io { .. }), "{err}");
        assert!(err.to_string().contains("slot0.journal"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_cut_anywhere_keeps_exactly_its_whole_records() {
        let first = encode_record(4, &[job(1), job(2)]);
        let second = encode_record(5, &[job(3)]);
        let journal = [first.as_slice(), second.as_slice()].concat();
        for cut in 0..=journal.len() {
            let ids: Vec<(u64, Vec<u64>)> = decode_journal(&journal[..cut])
                .into_iter()
                .map(|(index, jobs)| (index, jobs.iter().map(|j| j.id).collect()))
                .collect();
            let want: &[(u64, Vec<u64>)] = match cut {
                c if c < first.len() => &[],
                c if c < journal.len() => &[(4, vec![1, 2])],
                _ => &[(4, vec![1, 2]), (5, vec![3])],
            };
            assert_eq!(ids, want, "cut at {cut}");
        }
    }

    #[test]
    fn slot_and_record_encodings_are_pinned() {
        // The guard fingerprint counts codec calls, not their order, so
        // swapping two u64 fields would pass it; these pins would not.
        let slot = encode_slot(ClusterId::Venus, 3, 1_200, b"kernel frame");
        let decoded = decode_slot(&slot, ClusterId::Venus).expect("slot");
        assert_eq!(decoded, (3, 1_200, b"kernel frame".to_vec()));
        assert_eq!(xxh64(&slot), 0x8f92_fac3_01d0_8ee6);
        assert_eq!(
            xxh64(&encode_record(3, &[job(7), job(8)])),
            0x617f_7ac3_f6b6_ddbe
        );
    }
}
