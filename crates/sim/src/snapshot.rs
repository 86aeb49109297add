//! Versioned binary snapshot/restore of full kernel state, and the one
//! checksummed frame every persisted format is written in.
//!
//! A [`SimSnapshot`] captures everything a [`Simulator`](crate::Simulator)
//! needs to resume with **byte-identical downstream outcomes**, each fact
//! once, in two kinds of frame:
//!
//! * the **live frame** (`HSIMSNAP`) holds what can still change: the
//!   header, the job count, the drained count, the record of every
//!   unfinished job (pending, queued or running) with its state index, the
//!   policy-ordered queues and finish heap verbatim (backing arrays, so pop
//!   order is reproduced bit for bit, stale finish entries included), each
//!   VC's running allocations in slot order, the simulated horizon, opaque
//!   policy state
//!   ([`SchedulingPolicy::save_state`](crate::SchedulingPolicy::save_state))
//!   and the failure state behind a presence byte;
//! * **log frames** (`HSIMDONE`, under the same [`SNAPSHOT_VERSION`]) hold
//!   finished jobs as `(state index, record)` pairs in finish order. A
//!   record never changes once its job finished, so log frames written
//!   once stay valid for every later state.
//!
//! A live kernel is captured as a live frame over one log that grows by
//! a frame of the newly finished records per capture
//! ([`Simulator::live_frame_into`](crate::Simulator::live_frame_into),
//! [`Simulator::log_frame_into`](crate::Simulator::log_frame_into)); a
//! live frame decodes over a prefix of it ([`SimSnapshot::from_parts`]),
//! so a capture costs the unfinished work, not every job ever admitted.
//! [`SimSnapshot::to_bytes`] writes the live frame and one log frame of
//! every finished record, the reference codec tests compare against
//! ([`SimSnapshot::from_bytes`]).
//!
//! Deliberately *not* captured, because restore derives it: the arrival
//! cursor (every live job that never started and is not queued, sorted by
//! submit time and index), each VC's running list (from the jobs'
//! `run_slot`s), the per-node free counts (node size minus the GPUs the
//! allocations hold) and each node's busy GPUs under failure injection
//! (the same sum), and which finished jobs are undrained (the log entries
//! past the drained count). Nor the scratch buffers and registered
//! observers (restore starts with none; re-attach as needed).
//!
//! ## The frame
//!
//! Every persisted format — these kernel frames, the fleet snapshot,
//! checkpoint slots and journal records — is one frame, written by
//! [`ByteWriter::frame`] and read by [`ByteReader::frame`]:
//!
//! ```text
//! magic[8] | version u32 | body length u64 | body | XXH64 (seed 0) of everything before it
//! ```
//!
//! The reader checks the magic, then the version (any other version is
//! refused by number, never read), then the length, then the checksum,
//! so a cut or a bit flip is refused before a field is decoded. Bodies
//! are hand-written little-endian streams; decoding never panics, and
//! every malformed input is a [`HeliosError::Snapshot`].
//!
//! There is one live-frame encoder and one log-frame encoder, over
//! borrowed state. A live kernel lends its own arrays to them, so a
//! checkpoint never copies the job table; [`SimSnapshot::to_bytes`] lends
//! the snapshot's fields to the same code.

use crate::fault::FaultSnap;
use crate::job::SimJob;
use crate::pool::{Allocation, Placement};
use helios_trace::{ClusterSpec, HeliosError, HeliosResult};
use std::borrow::Cow;

/// Frame magic of a kernel live frame (the first frame of a serialized
/// [`SimSnapshot`]).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HSIMSNAP";
/// Frame magic of a finished-record log frame.
pub const FINISHED_LOG_MAGIC: [u8; 8] = *b"HSIMDONE";
/// Version of the live frame and the log frames. Version 6 splits the
/// finished records off into log frames (see the module docs); versions 1
/// to 5 are refused by number.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Bytes a frame adds around its body: magic, version, body length and
/// the closing checksum.
const FRAME_OVERHEAD: usize = 8 + 4 + 8 + 8;

/// Wire size of one `(state index, record)` pair: the index, the job, and
/// the 44 bytes of execution state.
const RECORD_WIRE_BYTES: usize = 8 + JOB_WIRE_BYTES + 44;

/// Complete resumable state of one [`Simulator`](crate::Simulator); see
/// the module docs for what is (and is not) captured. Produce with
/// [`Simulator::snapshot`](crate::Simulator::snapshot), serialize with
/// [`SimSnapshot::to_bytes`], and rehydrate through
/// [`Simulator::restore`](crate::Simulator::restore).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// Kernel placement knob at snapshot time.
    pub placement: Placement,
    /// Kernel backfill knob at snapshot time.
    pub backfill: bool,
    /// `policy.name()` at snapshot time; restore refuses a different
    /// discipline rather than silently diverging.
    pub policy_name: String,
    /// Fingerprint of the cluster spec the snapshot was taken against.
    pub spec_fingerprint: u64,
    /// Simulated horizon (`i64::MIN` before any activity).
    pub horizon: i64,
    /// Jobs admitted so far: each state index below it names exactly one
    /// record of `live` or `finished` (state indices elsewhere in the
    /// snapshot point into that table).
    pub job_count: usize,
    /// Every unfinished job (pending, queued or running) as `(state index,
    /// record)`, in ascending index order: the live frame's records.
    pub live: Vec<(usize, JobStateSnap)>,
    /// Per-VC queue and allocations, in VC order.
    pub vcs: Vec<VcSnap>,
    /// The finish heap's backing array verbatim: `(time, state index,
    /// epoch)`.
    pub finishes: Vec<(i64, usize, u32)>,
    /// Every finished job as `(state index, record)`, in finish order: the
    /// log frames' records.
    pub finished: Vec<(usize, JobStateSnap)>,
    /// Leading entries of `finished` whose outcomes were drained; the rest
    /// are the next [`drain_outcomes`](crate::Simulator::drain_outcomes).
    pub drained: usize,
    /// Opaque policy payload from `SchedulingPolicy::save_state`.
    pub policy_state: Vec<u8>,
    /// Failure-injection state (`None` when injection is disabled),
    /// written behind a presence byte.
    pub fault: Option<FaultSnap>,
}

/// One job's execution state: the kernel's own per-job record, which a
/// [`SimSnapshot`] copies and the encoder reads as is. `i64::MIN` is the
/// "not set" sentinel for the timestamp fields (plain sentinels instead
/// of `Option<i64>` keep the record at 88 bytes — the kernel is
/// memory-bound on this array at full scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobStateSnap {
    /// The job as submitted.
    pub job: SimJob,
    /// Remaining execution time.
    pub remaining: i64,
    /// Current-run start time (sentinel when not running).
    pub started_at: i64,
    /// First-ever start time (sentinel before first start).
    pub first_start: i64,
    /// Finish time (sentinel while unfinished).
    pub end: i64,
    /// Scheduling epoch (bumped on every start; stale-finish filter).
    pub epoch: u32,
    /// Times preempted so far.
    pub preemptions: u32,
    /// Index of this job inside its VC's `running` / `running_allocs`
    /// vectors while running (enables O(1) swap-removal); meaningless
    /// otherwise.
    pub run_slot: u32,
}

/// The kernel's total queue order: the policy's queue key, ties broken
/// by job id (`f64::total_cmp`, so every key is ordered).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueKey(pub f64, pub u64);

impl Eq for QueueKey {}

impl PartialOrd for QueueKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .total_cmp(&other.0)
            .then_with(|| self.1.cmp(&other.1))
    }
}

/// One VC's state inside a [`SimSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct VcSnap {
    /// The policy queue's backing heap array verbatim: `(key, state
    /// index)`.
    pub queue: Vec<(QueueKey, usize)>,
    /// `running_allocs[i]` is the live allocation of the running job
    /// whose `run_slot` is `i`.
    pub running_allocs: Vec<Allocation>,
}

impl VcSnap {
    fn view(&self) -> VcView<'_> {
        VcView {
            queue: &self.queue,
            running_allocs: &self.running_allocs,
        }
    }
}

/// Live-frame state borrowed in wire order: what the one HSIMSNAP encoder
/// reads. A live kernel lends its own arrays; a [`SimSnapshot`] lends its
/// fields. The live records, the policy payload and the failure state are
/// gathered on demand by a live kernel, hence the `Cow`s.
pub(crate) struct SnapView<'a> {
    pub placement: Placement,
    pub backfill: bool,
    pub policy_name: &'a str,
    pub spec_fingerprint: u64,
    pub horizon: i64,
    pub job_count: usize,
    pub drained: usize,
    pub live: Cow<'a, [(usize, JobStateSnap)]>,
    pub vcs: Vec<VcView<'a>>,
    pub finishes: &'a [(i64, usize, u32)],
    pub policy_state: Cow<'a, [u8]>,
    pub fault: Option<Cow<'a, FaultSnap>>,
}

/// One VC of a [`SnapView`].
pub(crate) struct VcView<'a> {
    pub queue: &'a [(QueueKey, usize)],
    pub running_allocs: &'a [Allocation],
}

/// Order-sensitive FNV-1a fingerprint of the spec facts the kernel state
/// depends on: cluster name, node counts, and the VC layout. Restore
/// validates it so a snapshot cannot be applied to a different cluster.
pub fn spec_fingerprint(spec: &ClusterSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &b in spec.id.name().as_bytes() {
        mix(b as u64);
    }
    mix(spec.nodes as u64);
    mix(spec.gpus_per_node as u64);
    mix(spec.vcs.len() as u64);
    for vc in &spec.vcs {
        mix(vc.id as u64);
        mix(vc.nodes as u64);
    }
    h
}

/// Little-endian byte-stream writer for snapshot payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Make room for exactly `additional` more bytes, so a large entry
    /// or a frame's closing checksum never doubles a full buffer.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve_exact(additional);
    }

    /// Write one frame: `magic`, `version`, the body length, the body
    /// `body` writes, and the XXH64 of everything before it. Returns what
    /// `body` returns. [`ByteReader::frame`] reads it back.
    pub fn frame<R>(
        &mut self,
        magic: &[u8; 8],
        version: u32,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let start = self.buf.len();
        self.raw(magic);
        self.u32(version);
        self.u64(0); // the body length, patched below
        let body_start = self.buf.len();
        let out = body(self);
        let body_len = (self.buf.len() - body_start) as u64;
        if let Some(len) = self.buf.get_mut(body_start - 8..body_start) {
            len.copy_from_slice(&body_len.to_le_bytes());
        }
        self.u64(xxh64(self.buf.get(start..).unwrap_or_default()));
        out
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Exact bit pattern (`to_bits`), so keys survive byte-identically.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Raw bytes with no length prefix — for fixed-size framing such as
    /// magic numbers.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// One [`SimJob`] in the fixed [`JOB_WIRE_BYTES`]-byte layout shared
    /// by the kernel codec and the fleet's admission-journal frames.
    pub fn job(&mut self, job: &SimJob) {
        self.u64(job.id);
        self.u32(job.vc as u32);
        self.u32(job.gpus);
        self.i64(job.submit);
        self.i64(job.duration);
        self.f64(job.priority);
    }
}

/// Wire size of one [`SimJob`] as written by [`ByteWriter::job`].
pub const JOB_WIRE_BYTES: usize = 40;

/// The first `N` bytes of `bytes` as a fixed array, zero-padded when
/// shorter — a panic-free stand-in for `try_into().unwrap()` on
/// length-checked reads (callers verify the length; this never trusts
/// it, honoring the "decoding never panics" contract).
fn le_bytes<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut buf = [0u8; N];
    for (dst, src) in buf.iter_mut().zip(bytes) {
        *dst = *src;
    }
    buf
}

/// Little-endian byte-stream reader; every method returns a typed
/// [`HeliosError::Snapshot`] on truncation instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`; `context` names the payload being decoded in
    /// error messages ("decoding kernel snapshot", ...).
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        ByteReader {
            buf,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error constructor carrying this reader's context.
    pub fn err(&self, detail: impl Into<String>) -> HeliosError {
        HeliosError::snapshot(self.context, detail)
    }

    /// The end check: a decoder calls it after its last field (or its
    /// last frame), so trailing bytes are refused.
    pub fn finish(self) -> HeliosResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.err(format!("{n} trailing bytes after the last field"))),
        }
    }

    /// Read the frame at the current position and move past it: check
    /// its magic, then its version (any other version is refused by
    /// number, never read), then its body length, then its checksum.
    /// Returns a reader over the body; the bytes after the frame stay in
    /// this reader.
    pub fn frame(&mut self, magic: &[u8; 8], version: u32) -> HeliosResult<ByteReader<'a>> {
        let start = self.pos;
        let name = || String::from_utf8_lossy(magic);
        if self.take(magic.len())? != magic {
            return Err(self.err(format!("bad magic: not a {} frame", name())));
        }
        let found = self.u32()?;
        if found != version {
            return Err(self.err(format!(
                "unsupported {} version {found} (this build reads version {version})",
                name()
            )));
        }
        let body_len = self.len(1)?;
        let body = self.take(body_len)?;
        let sealed = self.buf.get(start..self.pos).unwrap_or_default();
        if xxh64(sealed) != self.u64()? {
            return Err(self.err("checksum mismatch: the frame is corrupt or torn"));
        }
        Ok(ByteReader::new(body, self.context))
    }

    /// Exactly `n` raw bytes with no length prefix — the reading twin of
    /// [`ByteWriter::raw`].
    pub fn raw(&mut self, n: usize) -> HeliosResult<&'a [u8]> {
        self.take(n)
    }

    fn take(&mut self, n: usize) -> HeliosResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        // guard: allow(panic, reason = "the remaining() check above guarantees pos+n <= buf.len()")
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> HeliosResult<u8> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    pub fn u32(&mut self) -> HeliosResult<u32> {
        Ok(u32::from_le_bytes(le_bytes(self.take(4)?)))
    }

    pub fn u64(&mut self) -> HeliosResult<u64> {
        Ok(u64::from_le_bytes(le_bytes(self.take(8)?)))
    }

    pub fn i64(&mut self) -> HeliosResult<i64> {
        Ok(i64::from_le_bytes(le_bytes(self.take(8)?)))
    }

    pub fn f64(&mut self) -> HeliosResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix that must also be plausible for the bytes left —
    /// rejects corrupt lengths before any multi-gigabyte allocation.
    pub fn len(&mut self, elem_size: usize) -> HeliosResult<usize> {
        let n = self.u64()?;
        let max = (self.remaining() / elem_size.max(1)) as u64;
        if n > max {
            return Err(self.err(format!(
                "corrupt length {n} at offset {}: only {} bytes remain",
                self.pos,
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self) -> HeliosResult<Vec<u8>> {
        let n = self.len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> HeliosResult<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw).map_err(|e| self.err(format!("invalid UTF-8 string: {e}")))
    }

    /// One [`SimJob`] — the reading twin of [`ByteWriter::job`].
    pub fn job(&mut self) -> HeliosResult<SimJob> {
        let id = self.u64()?;
        let vc_raw = self.u32()?;
        let vc = u16::try_from(vc_raw)
            .map_err(|_| self.err(format!("job {id}: VC id {vc_raw} out of range")))?;
        Ok(SimJob {
            id,
            vc,
            gpus: self.u32()?,
            submit: self.i64()?,
            duration: self.i64()?,
            priority: self.f64()?,
        })
    }
}

/// XXH64 with seed 0 (xxHash's 64-bit variant): four independent 8-byte
/// lanes over 32-byte stripes, then the tail in 8-, 4- and 1-byte steps
/// and a final avalanche. The checksum that closes every frame.
pub fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    fn xxh_round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    let le_u64 = |word: &[u8]| u64::from_le_bytes(le_bytes(word));
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for stripe in &mut stripes {
            for (acc, lane) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *acc = xxh_round(*acc, le_u64(lane));
            }
        }
        let [v1, v2, v3, v4] = lanes;
        let h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        lanes.iter().fold(h, |h, &acc| {
            (h ^ xxh_round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
        })
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if let Some((word, after)) = rest.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = after;
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

fn placement_code(p: Placement) -> u8 {
    match p {
        Placement::Consolidate => 0,
        Placement::Scatter => 1,
    }
}

fn placement_from(code: u8, r: &ByteReader<'_>) -> HeliosResult<Placement> {
    match code {
        0 => Ok(Placement::Consolidate),
        1 => Ok(Placement::Scatter),
        other => Err(r.err(format!("unknown placement code {other}"))),
    }
}

impl SnapView<'_> {
    /// Upper bound on the encoded size: exact but for the failure
    /// section, which is bounded per node and per event.
    fn wire_bound(&self) -> usize {
        let vcs: usize = self
            .vcs
            .iter()
            .map(|vc| {
                16 + vc.queue.len() * 24
                    + vc.running_allocs
                        .iter()
                        .map(|a| 8 + a.slices().len() * 8)
                        .sum::<usize>()
            })
            .sum();
        let fault = self
            .fault
            .as_ref()
            .map_or(0, |f| 512 + f.nodes.len() * 64 + f.events.len() * 24);
        FRAME_OVERHEAD
            + 2
            + 8
            + self.policy_name.len()
            + 2 * 8
            + 3 * 8
            + self.live.len() * RECORD_WIRE_BYTES
            + 8
            + vcs
            + 8
            + self.finishes.len() * 20
            + 8
            + self.policy_state.len()
            + 1
            + fault
    }

    /// Encode the live frame into `out`, replacing its contents — the only
    /// HSIMSNAP encoder. `out`'s allocation is reused when it is large
    /// enough. A fresh buffer is sized exactly; an outgrown one is freed
    /// first and replaced with an eighth of headroom, so a buffer recycled
    /// across a growing kernel's checkpoints is not reallocated every time.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let need = self.wire_bound();
        out.clear();
        if out.capacity() < need {
            let headroom = if out.capacity() == 0 { 0 } else { need / 8 };
            *out = Vec::new();
            out.reserve_exact(need + headroom);
        }
        let mut w = ByteWriter {
            buf: std::mem::take(out),
        };
        w.frame(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION, |w| self.encode_body(w));
        debug_assert!(w.buf.len() <= need, "wire_bound under-estimates");
        *out = w.into_bytes();
    }

    fn encode_body(&self, w: &mut ByteWriter) {
        w.u8(placement_code(self.placement));
        w.u8(self.backfill as u8);
        w.str(self.policy_name);
        w.u64(self.spec_fingerprint);
        w.i64(self.horizon);
        w.u64(self.job_count as u64);
        w.u64(self.drained as u64);
        w.u64(self.live.len() as u64);
        for (idx, s) in self.live.iter() {
            write_record(w, *idx, s);
        }
        w.u64(self.vcs.len() as u64);
        for vc in &self.vcs {
            w.u64(vc.queue.len() as u64);
            for &(QueueKey(key, id), idx) in vc.queue {
                w.f64(key);
                w.u64(id);
                w.u64(idx as u64);
            }
            w.u64(vc.running_allocs.len() as u64);
            for alloc in vc.running_allocs {
                w.u64(alloc.slices().len() as u64);
                for &(node, gpus) in alloc.slices() {
                    w.u32(node);
                    w.u32(gpus);
                }
            }
        }
        w.u64(self.finishes.len() as u64);
        for &(t, idx, epoch) in self.finishes {
            w.i64(t);
            w.u64(idx as u64);
            w.u32(epoch);
        }
        w.bytes(&self.policy_state);
        w.u8(self.fault.is_some() as u8);
        if let Some(fault) = &self.fault {
            fault.encode(w);
        }
    }

    /// An owned copy of the viewed state over the finished records
    /// `finished` (finish order).
    pub(crate) fn into_snapshot(self, finished: Vec<(usize, JobStateSnap)>) -> SimSnapshot {
        SimSnapshot {
            placement: self.placement,
            backfill: self.backfill,
            policy_name: self.policy_name.to_string(),
            spec_fingerprint: self.spec_fingerprint,
            horizon: self.horizon,
            job_count: self.job_count,
            live: self.live.into_owned(),
            vcs: self
                .vcs
                .iter()
                .map(|vc| VcSnap {
                    queue: vc.queue.to_vec(),
                    running_allocs: vc.running_allocs.to_vec(),
                })
                .collect(),
            finishes: self.finishes.to_vec(),
            finished,
            drained: self.drained,
            policy_state: self.policy_state.into_owned(),
            fault: self.fault.map(Cow::into_owned),
        }
    }
}

/// One `(state index, record)` pair, as the live frame and the log frames
/// carry it.
fn write_record(w: &mut ByteWriter, idx: usize, s: &JobStateSnap) {
    w.u64(idx as u64);
    w.job(&s.job);
    w.i64(s.remaining);
    w.i64(s.started_at);
    w.i64(s.first_start);
    w.i64(s.end);
    w.u32(s.epoch);
    w.u32(s.preemptions);
    w.u32(s.run_slot);
}

/// The reading twin of [`write_record`].
fn read_record(r: &mut ByteReader<'_>) -> HeliosResult<(usize, JobStateSnap)> {
    let idx = r.u64()? as usize;
    Ok((
        idx,
        JobStateSnap {
            job: r.job()?,
            remaining: r.i64()?,
            started_at: r.i64()?,
            first_start: r.i64()?,
            end: r.i64()?,
            epoch: r.u32()?,
            preemptions: r.u32()?,
            run_slot: r.u32()?,
        },
    ))
}

/// Append one log frame holding `records` — finished jobs as `(state
/// index, record)` pairs, in finish order — to `out`. The body is the
/// records back to back; their count is the body length over the record
/// size. `out` grows amortized, so a log appended to once per checkpoint
/// is not copied on every append.
pub(crate) fn append_log_frame<'s>(
    out: &mut Vec<u8>,
    records: impl Iterator<Item = (usize, &'s JobStateSnap)>,
) {
    let most = records.size_hint().1.unwrap_or(0);
    out.reserve(FRAME_OVERHEAD + most * RECORD_WIRE_BYTES);
    let mut w = ByteWriter {
        buf: std::mem::take(out),
    };
    w.frame(&FINISHED_LOG_MAGIC, SNAPSHOT_VERSION, |w| {
        for (idx, s) in records {
            write_record(w, idx, s);
        }
    });
    *out = w.into_bytes();
}

/// Read the log frame at `input`'s position, appending its records to
/// `into`.
fn read_log_frame(
    input: &mut ByteReader<'_>,
    into: &mut Vec<(usize, JobStateSnap)>,
) -> HeliosResult<()> {
    let mut r = input.frame(&FINISHED_LOG_MAGIC, SNAPSHOT_VERSION)?;
    into.reserve(r.remaining() / RECORD_WIRE_BYTES);
    while r.remaining() > 0 {
        into.push(read_record(&mut r)?);
    }
    Ok(())
}

/// Bytes of the longest prefix of `log` that is whole log frames, each
/// with a matching checksum: where a torn or damaged tail begins.
pub fn whole_log_prefix(log: &[u8]) -> usize {
    let mut r = ByteReader::new(log, "scanning finished-record log");
    let mut whole = 0;
    while r.frame(&FINISHED_LOG_MAGIC, SNAPSHOT_VERSION).is_ok() {
        whole = log.len() - r.remaining();
    }
    whole
}

impl SimSnapshot {
    fn view(&self) -> SnapView<'_> {
        SnapView {
            placement: self.placement,
            backfill: self.backfill,
            policy_name: &self.policy_name,
            spec_fingerprint: self.spec_fingerprint,
            horizon: self.horizon,
            job_count: self.job_count,
            drained: self.drained,
            live: Cow::Borrowed(&self.live),
            vcs: self.vcs.iter().map(VcSnap::view).collect(),
            finishes: &self.finishes,
            policy_state: Cow::Borrowed(&self.policy_state),
            fault: self.fault.as_ref().map(Cow::Borrowed),
        }
    }

    /// Serialize to the live frame followed by one log frame of every
    /// finished record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.view().encode_into(&mut out);
        append_log_frame(&mut out, self.finished.iter().map(|(idx, s)| (*idx, s)));
        out
    }

    /// Decode the bytes [`SimSnapshot::to_bytes`] writes: exactly one live
    /// frame and one log frame. A refused frame, trailing bytes, or a
    /// malformed body are typed errors.
    pub fn from_bytes(bytes: &[u8]) -> HeliosResult<SimSnapshot> {
        let mut input = ByteReader::new(bytes, "decoding kernel snapshot");
        let live = input.frame(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let mut finished = Vec::new();
        read_log_frame(&mut input, &mut finished)?;
        input.finish()?;
        decode_live(live, finished)
    }

    /// Decode one live frame over `log`, the log frames (any number,
    /// oldest first) that hold every job finished when the live frame was
    /// taken. A log that holds more or fewer records than the live frame's
    /// job count leaves over is refused like a damaged frame.
    pub fn from_parts(live: &[u8], log: &[u8]) -> HeliosResult<SimSnapshot> {
        let mut input = ByteReader::new(live, "decoding kernel snapshot");
        let body = input.frame(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        input.finish()?;
        let mut log = ByteReader::new(log, "decoding finished-record log");
        let mut finished = Vec::new();
        while log.remaining() > 0 {
            read_log_frame(&mut log, &mut finished)?;
        }
        decode_live(body, finished)
    }
}

/// Decode a live frame's body over the finished records its log frames
/// hold.
fn decode_live(
    mut r: ByteReader<'_>,
    finished: Vec<(usize, JobStateSnap)>,
) -> HeliosResult<SimSnapshot> {
    let placement = placement_from(r.u8()?, &r)?;
    let backfill = r.u8()? != 0;
    let policy_name = r.str()?;
    let spec_fingerprint = r.u64()?;
    let horizon = r.i64()?;
    let job_count = r.u64()?;
    let drained = r.u64()? as usize;
    let n_live = r.len(RECORD_WIRE_BYTES)?;
    let mut live = Vec::with_capacity(n_live);
    for _ in 0..n_live {
        live.push(read_record(&mut r)?);
    }
    if job_count != (live.len() + finished.len()) as u64 {
        return Err(r.err(format!(
            "{job_count} jobs admitted but {} live and {} finished records",
            live.len(),
            finished.len()
        )));
    }
    let n_vcs = r.len(16)?;
    let mut vcs = Vec::with_capacity(n_vcs);
    for _ in 0..n_vcs {
        let n_queue = r.len(24)?;
        let mut queue = Vec::with_capacity(n_queue);
        for _ in 0..n_queue {
            let key = QueueKey(r.f64()?, r.u64()?);
            queue.push((key, r.u64()? as usize));
        }
        let n_allocs = r.len(8)?;
        let mut running_allocs = Vec::with_capacity(n_allocs);
        for _ in 0..n_allocs {
            let n_slices = r.len(8)?;
            let mut slices = Vec::with_capacity(n_slices);
            for _ in 0..n_slices {
                slices.push((r.u32()?, r.u32()?));
            }
            running_allocs.push(slices.into_iter().collect());
        }
        vcs.push(VcSnap {
            queue,
            running_allocs,
        });
    }
    let n_fin = r.len(20)?;
    let mut finishes = Vec::with_capacity(n_fin);
    for _ in 0..n_fin {
        finishes.push((r.i64()?, r.u64()? as usize, r.u32()?));
    }
    let policy_state = r.bytes()?;
    let fault = match r.u8()? {
        0 => None,
        1 => Some(FaultSnap::decode(&mut r)?),
        other => return Err(r.err(format!("unknown failure-state presence byte {other}"))),
    };
    r.finish()?;
    Ok(SimSnapshot {
        placement,
        backfill,
        policy_name,
        spec_fingerprint,
        horizon,
        job_count: job_count as usize,
        live,
        vcs,
        finishes,
        finished,
        drained,
        policy_state,
        fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_trace::{philly, venus};

    /// A finished job (index 0) and a running one (index 1), so both the
    /// live frame and the log frame carry a record.
    fn sample() -> SimSnapshot {
        let running = JobStateSnap {
            job: SimJob {
                id: 7,
                vc: 3,
                gpus: 8,
                submit: 100,
                duration: 600,
                priority: 2.5,
            },
            remaining: 400,
            started_at: 300,
            first_start: 200,
            end: i64::MIN,
            epoch: 2,
            preemptions: 1,
            run_slot: 0,
        };
        let done = JobStateSnap {
            job: SimJob {
                id: 5,
                vc: 3,
                gpus: 1,
                submit: 50,
                duration: 60,
                priority: 0.5,
            },
            remaining: 0,
            started_at: 60,
            first_start: 60,
            end: 120,
            epoch: 1,
            preemptions: 0,
            run_slot: 1,
        };
        SimSnapshot {
            placement: Placement::Scatter,
            backfill: true,
            policy_name: "FIFO".into(),
            spec_fingerprint: spec_fingerprint(&venus()),
            horizon: 12_345,
            job_count: 2,
            live: vec![(1, running)],
            vcs: vec![VcSnap {
                queue: vec![(QueueKey(100.0, 7), 1), (QueueKey(101.5, 9), 1)],
                running_allocs: vec![[(0, 8)].into_iter().collect()],
            }],
            finishes: vec![(700, 1, 2)],
            finished: vec![(0, done)],
            drained: 0,
            policy_state: vec![1, 2, 3],
            fault: None,
        }
    }

    /// The live frame and the log frame of `bytes`, split at the end of
    /// the first frame (its header carries the body length).
    fn split(bytes: &[u8]) -> (&[u8], &[u8]) {
        let mut len = [0u8; 8];
        len.copy_from_slice(&bytes[12..20]);
        bytes.split_at(FRAME_OVERHEAD + u64::from_le_bytes(len) as usize)
    }

    #[test]
    fn wire_round_trip_is_exact() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        // Re-encoding is byte-stable.
        assert_eq!(back.to_bytes(), bytes);
        // The two frames decode as parts, too.
        let (live, log) = split(&bytes);
        assert_eq!(&log[..8], &FINISHED_LOG_MAGIC);
        assert_eq!(SimSnapshot::from_parts(live, log).unwrap(), snap);
    }

    #[test]
    fn a_log_of_many_frames_decodes_like_one() {
        // Three finished jobs logged one frame at a time, as a checkpoint
        // ring appends them, equal one log frame of all three.
        let mut snap = sample();
        let (_, done) = snap.finished[0];
        snap.finished = (0..3).map(|idx| (idx, done)).collect();
        snap.live[0].0 = 3;
        snap.job_count = 4;
        let bytes = snap.to_bytes();
        let (live, _) = split(&bytes);
        let mut log = Vec::new();
        for pair in snap.finished.chunks(1) {
            append_log_frame(&mut log, pair.iter().map(|(idx, s)| (*idx, s)));
        }
        append_log_frame(&mut log, std::iter::empty());
        assert_eq!(SimSnapshot::from_parts(live, &log).unwrap(), snap);
        assert_eq!(whole_log_prefix(&log), log.len());
        // A log cut short is refused — a torn frame by its checksum, a
        // missing record by the job count — unless it only drops the
        // trailing empty frame.
        let records_end = log.len() - FRAME_OVERHEAD;
        for cut in 0..log.len() {
            match SimSnapshot::from_parts(live, &log[..cut]) {
                Ok(back) => assert!(cut == records_end && back == snap, "cut at {cut}"),
                Err(err) => {
                    assert!(cut != records_end, "cut at {cut}: {err}");
                    assert!(matches!(err, HeliosError::Snapshot { .. }), "cut at {cut}");
                }
            }
            assert!(whole_log_prefix(&log[..cut]) <= cut);
        }
    }

    fn sample_fault() -> FaultSnap {
        use crate::fault::{FaultConfig, FaultNodeSnap, FaultStats};
        FaultSnap {
            cfg: FaultConfig::with_mtbf_hours(48.0),
            seeded: true,
            t0: 99,
            nodes: vec![FaultNodeSnap {
                up: false,
                draining: true,
                epoch: 3,
                fail_seq: 2,
                up_since: 50,
                fail_count: 1,
                alloc_events: 7,
                busy_integral: 123.5,
                last_t: 80,
                drain_since: 60,
            }],
            events: vec![(1_000, 0, 1, 3)],
            stats: FaultStats {
                failures: 1,
                killed_jobs: 2,
                lost_gpu_secs: 64.0,
                ..Default::default()
            },
        }
    }

    #[test]
    fn fault_section_round_trips_as_version_two() {
        // The failure state is a body section behind a presence byte: the
        // frame version is the same with and without it.
        let mut snap = sample();
        let plain = snap.to_bytes();
        snap.fault = Some(sample_fault());
        let bytes = snap.to_bytes();
        for frame in [&plain, &bytes] {
            assert_eq!(frame[8..12], SNAPSHOT_VERSION.to_le_bytes());
        }
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn exact_encodings_are_pinned() {
        // The guard fingerprint counts codec calls, not their order within
        // a type, so swapping two u64 fields would pass it; these pins
        // would not.
        let mut snap = sample();
        assert_eq!(xxh64(&snap.to_bytes()), 0xe19b_d8a3_3fad_273c);
        snap.fault = Some(sample_fault());
        assert_eq!(xxh64(&snap.to_bytes()), 0xe0fc_957d_2519_db77);
    }

    #[test]
    fn xxh64_known_answers() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
        // 47 bytes: one stripe, then an 8-, a 4- and three 1-byte steps.
        let ramp: Vec<u8> = (0..47).collect();
        assert_eq!(xxh64(&ramp), 0x0d98_83a0_3e7b_fbb8);
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_frame_is_refused() {
        // Both frames: the live frame (with a failure section) and the
        // log frame after it.
        let mut snap = sample();
        snap.fault = Some(sample_fault());
        let mut bytes = snap.to_bytes();
        let refused = |bytes: &[u8]| {
            matches!(
                SimSnapshot::from_bytes(bytes),
                Err(HeliosError::Snapshot { .. })
            )
        };
        for cut in 0..bytes.len() {
            assert!(refused(&bytes[..cut]), "cut at {cut}");
        }
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(refused(&bytes), "bit {bit} flipped");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(SimSnapshot::from_bytes(&bytes).unwrap(), snap);
        // Each frame on its own, as a checkpoint ring keeps them.
        let (live, log) = split(&bytes);
        let (mut live, mut log) = (live.to_vec(), log.to_vec());
        for cut in 0..live.len() {
            assert!(
                SimSnapshot::from_parts(&live[..cut], &log).is_err(),
                "live cut {cut}"
            );
        }
        for bit in 0..live.len() * 8 {
            live[bit / 8] ^= 1 << (bit % 8);
            assert!(
                SimSnapshot::from_parts(&live, &log).is_err(),
                "live bit {bit}"
            );
            live[bit / 8] ^= 1 << (bit % 8);
        }
        for bit in 0..log.len() * 8 {
            log[bit / 8] ^= 1 << (bit % 8);
            assert!(
                SimSnapshot::from_parts(&live, &log).is_err(),
                "log bit {bit}"
            );
            log[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(SimSnapshot::from_parts(&live, &log).unwrap(), snap);
    }

    #[test]
    fn absurd_body_length_is_refused_before_allocating() {
        let mut w = ByteWriter::new();
        w.raw(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u64(u64::MAX);
        let err = SimSnapshot::from_bytes(&w.into_bytes()).unwrap_err();
        assert!(err.to_string().contains("corrupt length"), "{err}");
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let bytes = sample().to_bytes();
        for cut in [0, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            let err = SimSnapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, HeliosError::Snapshot { .. }),
                "cut at {cut}: {err}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0xFF);
        assert!(SimSnapshot::from_bytes(&trailing).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(SimSnapshot::from_bytes(&wrong_magic).is_err());
        // Version 5 frames (which held every job's record in one frame)
        // are refused by number, and so is a log frame of another version.
        let mut version_five = bytes.clone();
        version_five[8..12].copy_from_slice(&5u32.to_le_bytes());
        let err = SimSnapshot::from_bytes(&version_five).unwrap_err();
        assert!(err.to_string().contains("HSIMSNAP version 5 "), "{err}");
        let log_at = split(&bytes).0.len();
        let mut old_log = bytes.clone();
        old_log[log_at + 8..log_at + 12].copy_from_slice(&5u32.to_le_bytes());
        let err = SimSnapshot::from_bytes(&old_log).unwrap_err();
        assert!(err.to_string().contains("HSIMDONE version 5 "), "{err}");
        let mut wrong_version = bytes;
        wrong_version[8] = 0xEE;
        let err = SimSnapshot::from_bytes(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("HSIMSNAP version 238 "), "{err}");
    }

    #[test]
    fn fingerprints_distinguish_clusters() {
        assert_ne!(spec_fingerprint(&venus()), spec_fingerprint(&philly()));
        let mut shrunk = venus();
        shrunk.vcs.pop();
        assert_ne!(spec_fingerprint(&venus()), spec_fingerprint(&shrunk));
    }
}
