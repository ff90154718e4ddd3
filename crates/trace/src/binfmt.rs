//! Compact binary trace format (`.trace.bin`).
//!
//! The JSON trace files are convenient to inspect but hopeless at the
//! million-job scale the ROADMAP targets: a Facebook-mix job template is
//! several KB of JSON, and loading requires materializing the whole job
//! vector. This module defines **SIMMRBIN v1**, a length-prefixed,
//! versioned, checksummed layout in which job templates are written once
//! into an interning table and every job is a fixed 21-byte record —
//! pennies per job, and streamable.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SIMMRBIN"
//!      8     2  version (currently 1)
//!     10     2  reserved (zero)
//!     12     8  job_count
//!     20     8  first_arrival in ms (u64::MAX when job_count == 0)
//!     28     4  meta_len      — byte length of the meta section
//!     32     4  template_count
//!     36     8  template_bytes — byte length of the template table
//!     44     4  crc32 (IEEE) over meta ++ templates ++ records
//!     48     …  meta section, template table, then job records
//! ```
//!
//! *Meta section*: `description` and `source` as `u32` length-prefixed
//! UTF-8, then a seed flag byte and the `u64` seed.
//!
//! *Template table*: `template_count` entries, each a length-prefixed
//! name, four `u32` array lengths (map, first-shuffle, typical-shuffle,
//! reduce) and the four duration arrays as raw `u64`s. Identical
//! templates are interned: the table stores one copy, records refer to it
//! by index.
//!
//! *Job records*: `job_count` fixed-stride 21-byte entries sorted by
//! `(arrival, insertion order)` — `template_index: u32`, `arrival: u64`,
//! a deadline flag byte, `deadline: u64`. The sort makes the file
//! directly streamable into the engine's arrival-ordered
//! [`simmr_core::JobSource`] contract.
//!
//! Readers: [`BinTraceReader`] parses an in-memory byte slice (checksum
//! verified once, records then read zero-copy by index) and
//! [`BinTraceSource`] streams a file through a small buffer without ever
//! materializing the job vector. Writers: [`BinTraceWriter`] streams
//! records to any `Write + Seek` sink with flat memory;
//! [`encode_trace`]/[`decode_trace`] convert a materialized
//! [`WorkloadTrace`].

use simmr_core::{JobSource, SourceError, SourcedJob};
use simmr_types::{JobId, JobSpec, JobTemplate, SimTime, TemplateError, TraceMeta, WorkloadTrace};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// File magic: the first 8 bytes of every binary trace.
pub const MAGIC: [u8; 8] = *b"SIMMRBIN";
/// Current format version.
pub const VERSION: u16 = 1;
/// Header size in bytes.
pub const HEADER_BYTES: usize = 48;
/// Fixed job-record stride in bytes.
pub const RECORD_BYTES: usize = 21;

/// Errors raised by the binary codec. Every corruption mode maps to a
/// typed variant — decoding never panics on hostile input.
#[derive(Debug)]
pub enum BinError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// The input ends before a section or record it promises.
    Truncated,
    /// Body checksum does not match the header.
    ChecksumMismatch {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC computed over the body.
        actual: u32,
    },
    /// A length-prefixed string is not valid UTF-8.
    BadUtf8,
    /// A job record names a template past the table.
    BadTemplateIndex {
        /// Index found in the record.
        index: u32,
        /// Number of templates in the table.
        count: u32,
    },
    /// A template fails [`JobTemplate::validate`].
    InvalidTemplate(TemplateError),
    /// Job records are not sorted by arrival (writer misuse, or a file
    /// whose body was rewritten around the checksum).
    ArrivalOrder,
    /// [`BinTraceWriter::intern_template`] called after the first
    /// `push_job` — the template table is already on disk.
    TemplatesSealed,
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "binary trace I/O error: {e}"),
            BinError::BadMagic => write!(f, "not a SIMMRBIN trace (bad magic)"),
            BinError::BadVersion(v) => {
                write!(f, "unsupported SIMMRBIN version {v} (expected {VERSION})")
            }
            BinError::Truncated => write!(f, "binary trace is truncated"),
            BinError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: header {expected:#010x}, body {actual:#010x}")
            }
            BinError::BadUtf8 => write!(f, "binary trace holds invalid UTF-8"),
            BinError::BadTemplateIndex { index, count } => {
                write!(f, "job record names template {index} but the table holds {count}")
            }
            BinError::InvalidTemplate(e) => write!(f, "invalid job template: {e}"),
            BinError::ArrivalOrder => write!(f, "job records are not sorted by arrival"),
            BinError::TemplatesSealed => {
                write!(f, "cannot intern templates after the first job record")
            }
        }
    }
}

impl std::error::Error for BinError {}

impl From<io::Error> for BinError {
    fn from(e: io::Error) -> Self {
        BinError::Io(e)
    }
}

impl From<TemplateError> for BinError {
    fn from(e: TemplateError) -> Self {
        BinError::InvalidTemplate(e)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Incremental IEEE CRC32.
#[derive(Debug, Clone)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

// ---------------------------------------------------------------------------
// Little-endian section encoding helpers.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_durations(out: &mut Vec<u8>, ds: &[u64]) {
    for &d in ds {
        put_u64(out, d);
    }
}

fn encode_meta(meta: &TraceMeta) -> Vec<u8> {
    let mut out = Vec::with_capacity(meta.description.len() + meta.source.len() + 17);
    put_str(&mut out, &meta.description);
    put_str(&mut out, &meta.source);
    out.push(meta.seed.is_some() as u8);
    put_u64(&mut out, meta.seed.unwrap_or(0));
    out
}

/// Lossless byte encoding of one template — also the interning key, so
/// templates with identical content share one table entry.
fn encode_template(t: &JobTemplate) -> Vec<u8> {
    let arrays = t.num_maps
        + t.first_shuffle_durations.len()
        + t.typical_shuffle_durations.len()
        + t.num_reduces;
    let mut out = Vec::with_capacity(4 + t.name.len() + 16 + arrays * 8);
    put_str(&mut out, &t.name);
    put_u32(&mut out, t.map_durations.len() as u32);
    put_u32(&mut out, t.first_shuffle_durations.len() as u32);
    put_u32(&mut out, t.typical_shuffle_durations.len() as u32);
    put_u32(&mut out, t.reduce_durations.len() as u32);
    put_durations(&mut out, &t.map_durations);
    put_durations(&mut out, &t.first_shuffle_durations);
    put_durations(&mut out, &t.typical_shuffle_durations);
    put_durations(&mut out, &t.reduce_durations);
    out
}

fn encode_record(template_index: u32, arrival: SimTime, deadline: Option<SimTime>) -> [u8; 21] {
    let mut rec = [0u8; RECORD_BYTES];
    rec[0..4].copy_from_slice(&template_index.to_le_bytes());
    rec[4..12].copy_from_slice(&arrival.as_millis().to_le_bytes());
    rec[12] = deadline.is_some() as u8;
    rec[13..21].copy_from_slice(&deadline.map_or(0, SimTime::as_millis).to_le_bytes());
    rec
}

// ---------------------------------------------------------------------------
// Section decoding: a bounds-checked cursor over a byte slice.

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        let end = self.pos.checked_add(n).ok_or(BinError::Truncated)?;
        if end > self.bytes.len() {
            return Err(BinError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    fn str(&mut self) -> Result<&'a str, BinError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| BinError::BadUtf8)
    }

    fn durations(&mut self, count: usize) -> Result<Vec<u64>, BinError> {
        let raw = self.take(count.checked_mul(8).ok_or(BinError::Truncated)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    fn exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_meta(bytes: &[u8]) -> Result<TraceMeta, BinError> {
    let mut c = Cursor::new(bytes);
    let description = c.str()?.to_owned();
    let source = c.str()?.to_owned();
    let has_seed = c.u8()? != 0;
    let seed = c.u64()?;
    if !c.exhausted() {
        return Err(BinError::Truncated);
    }
    Ok(TraceMeta { description, source, seed: has_seed.then_some(seed) })
}

fn decode_templates(bytes: &[u8], count: u32) -> Result<Vec<Arc<JobTemplate>>, BinError> {
    let mut c = Cursor::new(bytes);
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name: Arc<str> = c.str()?.into();
        let maps = c.u32()? as usize;
        let firsts = c.u32()? as usize;
        let typicals = c.u32()? as usize;
        let reduces = c.u32()? as usize;
        let template = JobTemplate {
            name,
            num_maps: maps,
            num_reduces: reduces,
            map_durations: c.durations(maps)?,
            first_shuffle_durations: c.durations(firsts)?,
            typical_shuffle_durations: c.durations(typicals)?,
            reduce_durations: c.durations(reduces)?,
        };
        template.validate()?;
        out.push(Arc::new(template));
    }
    if !c.exhausted() {
        return Err(BinError::Truncated);
    }
    Ok(out)
}

/// One decoded job record (the template stays in the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinRecord {
    /// Index into the template table.
    pub template_index: u32,
    /// Job submission time.
    pub arrival: SimTime,
    /// Optional absolute deadline.
    pub deadline: Option<SimTime>,
}

fn decode_record(rec: &[u8]) -> BinRecord {
    debug_assert_eq!(rec.len(), RECORD_BYTES);
    BinRecord {
        template_index: u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes")),
        arrival: SimTime::from_millis(u64::from_le_bytes(rec[4..12].try_into().expect("8 bytes"))),
        deadline: (rec[12] != 0).then(|| {
            SimTime::from_millis(u64::from_le_bytes(rec[13..21].try_into().expect("8 bytes")))
        }),
    }
}

/// The parsed header of a binary trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    job_count: u64,
    first_arrival: u64,
    meta_len: u32,
    template_count: u32,
    template_bytes: u64,
    crc: u32,
}

impl Header {
    fn parse(bytes: &[u8]) -> Result<Header, BinError> {
        if bytes.len() < HEADER_BYTES {
            // an empty or tiny file is "not this format" only when even the
            // magic is absent; a good magic with a short header is truncation
            if bytes.len() >= 8 && bytes[..8] == MAGIC {
                return Err(BinError::Truncated);
            }
            return Err(BinError::BadMagic);
        }
        let mut c = Cursor::new(bytes);
        if c.take(8)? != MAGIC {
            return Err(BinError::BadMagic);
        }
        let version = u16::from_le_bytes(c.take(2)?.try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(BinError::BadVersion(version));
        }
        c.take(2)?; // reserved
        Ok(Header {
            job_count: c.u64()?,
            first_arrival: c.u64()?,
            meta_len: c.u32()?,
            template_count: c.u32()?,
            template_bytes: c.u64()?,
            crc: c.u32()?,
        })
    }

    fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..10].copy_from_slice(&VERSION.to_le_bytes());
        out[12..20].copy_from_slice(&self.job_count.to_le_bytes());
        out[20..28].copy_from_slice(&self.first_arrival.to_le_bytes());
        out[28..32].copy_from_slice(&self.meta_len.to_le_bytes());
        out[32..36].copy_from_slice(&self.template_count.to_le_bytes());
        out[36..44].copy_from_slice(&self.template_bytes.to_le_bytes());
        out[44..48].copy_from_slice(&self.crc.to_le_bytes());
        out
    }

    fn record_bytes(&self) -> Result<u64, BinError> {
        self.job_count.checked_mul(RECORD_BYTES as u64).ok_or(BinError::Truncated)
    }

    /// Body length: meta + templates + records.
    fn body_bytes(&self) -> Result<u64, BinError> {
        (self.meta_len as u64)
            .checked_add(self.template_bytes)
            .and_then(|n| n.checked_add(self.record_bytes().ok()?))
            .ok_or(BinError::Truncated)
    }
}

// ---------------------------------------------------------------------------
// Writer

/// Streaming binary-trace writer over any `Write + Seek` sink.
///
/// Usage: intern every template first, then push jobs **in arrival
/// order**; `finish` back-patches the header. Memory stays flat in the
/// job count — only the meta and template sections are buffered (they
/// precede the records on disk but their sizes are unknown until the
/// first push seals them).
#[derive(Debug)]
pub struct BinTraceWriter<W: Write + Seek> {
    out: W,
    meta_bytes: Vec<u8>,
    template_bytes: Vec<u8>,
    interned: HashMap<Vec<u8>, u32>,
    template_count: u32,
    sealed: bool,
    crc: Crc32,
    job_count: u64,
    first_arrival: Option<SimTime>,
    last_arrival: SimTime,
}

impl<W: Write + Seek> BinTraceWriter<W> {
    /// Starts a trace with the given provenance metadata.
    pub fn new(out: W, meta: &TraceMeta) -> Self {
        BinTraceWriter {
            out,
            meta_bytes: encode_meta(meta),
            template_bytes: Vec::new(),
            interned: HashMap::new(),
            template_count: 0,
            sealed: false,
            crc: Crc32::new(),
            job_count: 0,
            first_arrival: None,
            last_arrival: SimTime::ZERO,
        }
    }

    /// Adds `template` to the interning table (or finds its existing
    /// entry) and returns its record index. Must precede the first
    /// [`Self::push_job`].
    pub fn intern_template(&mut self, template: &JobTemplate) -> Result<u32, BinError> {
        if self.sealed {
            return Err(BinError::TemplatesSealed);
        }
        template.validate()?;
        let key = encode_template(template);
        if let Some(&id) = self.interned.get(&key) {
            return Ok(id);
        }
        let id = self.template_count;
        self.template_bytes.extend_from_slice(&key);
        self.interned.insert(key, id);
        self.template_count += 1;
        Ok(id)
    }

    /// Writes the placeholder header plus the meta and template sections;
    /// after this no more templates can be interned.
    fn seal(&mut self) -> Result<(), BinError> {
        self.out.write_all(&[0u8; HEADER_BYTES])?;
        self.out.write_all(&self.meta_bytes)?;
        self.out.write_all(&self.template_bytes)?;
        self.crc.update(&self.meta_bytes);
        self.crc.update(&self.template_bytes);
        self.sealed = true;
        self.interned = HashMap::new(); // the dedup map is dead weight now
        Ok(())
    }

    /// Appends one job record. Arrivals must be non-decreasing.
    pub fn push_job(
        &mut self,
        template_index: u32,
        arrival: SimTime,
        deadline: Option<SimTime>,
    ) -> Result<(), BinError> {
        if !self.sealed {
            self.seal()?;
        }
        if template_index >= self.template_count {
            return Err(BinError::BadTemplateIndex {
                index: template_index,
                count: self.template_count,
            });
        }
        if arrival < self.last_arrival {
            return Err(BinError::ArrivalOrder);
        }
        let rec = encode_record(template_index, arrival, deadline);
        self.crc.update(&rec);
        self.out.write_all(&rec)?;
        self.job_count += 1;
        self.first_arrival.get_or_insert(arrival);
        self.last_arrival = arrival;
        Ok(())
    }

    /// Back-patches the real header and returns the sink.
    pub fn finish(mut self) -> Result<W, BinError> {
        if !self.sealed {
            self.seal()?;
        }
        let header = Header {
            job_count: self.job_count,
            first_arrival: self.first_arrival.map_or(u64::MAX, SimTime::as_millis),
            meta_len: self.meta_bytes.len() as u32,
            template_count: self.template_count,
            template_bytes: self.template_bytes.len() as u64,
            crc: self.crc.finish(),
        };
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&header.encode())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Encodes a materialized trace to SIMMRBIN bytes. Jobs are canonically
/// reordered by `(arrival, original position)`; templates with identical
/// content collapse into one table entry.
pub fn encode_trace(trace: &WorkloadTrace) -> Result<Vec<u8>, BinError> {
    let mut order: Vec<(SimTime, usize)> =
        trace.jobs.iter().enumerate().map(|(i, j)| (j.arrival, i)).collect();
    order.sort_unstable();
    let mut w = BinTraceWriter::new(io::Cursor::new(Vec::new()), &trace.meta);
    let mut ids = Vec::with_capacity(order.len());
    for &(_, i) in &order {
        ids.push(w.intern_template(&trace.jobs[i].template)?);
    }
    for (&(arrival, i), &id) in order.iter().zip(&ids) {
        w.push_job(id, arrival, trace.jobs[i].deadline)?;
    }
    Ok(w.finish()?.into_inner())
}

// ---------------------------------------------------------------------------
// Readers

/// Zero-copy reader over an in-memory (or memory-mapped) binary trace.
///
/// `parse` verifies the magic, version, section lengths and checksum
/// once and decodes the small meta/template tables; individual job
/// records are then read straight out of the byte slice by index without
/// materializing a job vector.
#[derive(Debug)]
pub struct BinTraceReader<'a> {
    meta: TraceMeta,
    templates: Vec<Arc<JobTemplate>>,
    records: &'a [u8],
    job_count: usize,
    first_arrival: Option<SimTime>,
}

impl<'a> BinTraceReader<'a> {
    /// Parses and fully validates a binary trace.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, BinError> {
        let header = Header::parse(bytes)?;
        let body_len = header.body_bytes()?;
        let expect_len = (HEADER_BYTES as u64).checked_add(body_len).ok_or(BinError::Truncated)?;
        if (bytes.len() as u64) < expect_len {
            return Err(BinError::Truncated);
        }
        let body = &bytes[HEADER_BYTES..expect_len as usize];
        let mut crc = Crc32::new();
        crc.update(body);
        let actual = crc.finish();
        if actual != header.crc {
            return Err(BinError::ChecksumMismatch { expected: header.crc, actual });
        }
        let meta_end = header.meta_len as usize;
        let templates_end = meta_end + header.template_bytes as usize;
        let meta = decode_meta(&body[..meta_end])?;
        let templates = decode_templates(&body[meta_end..templates_end], header.template_count)?;
        Ok(BinTraceReader {
            meta,
            templates,
            records: &body[templates_end..],
            job_count: header.job_count as usize,
            first_arrival: (header.job_count > 0)
                .then(|| SimTime::from_millis(header.first_arrival)),
        })
    }

    /// Number of job records.
    pub fn job_count(&self) -> usize {
        self.job_count
    }

    /// Earliest arrival (None for an empty trace).
    pub fn first_arrival(&self) -> Option<SimTime> {
        self.first_arrival
    }

    /// Trace provenance.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The interned template table.
    pub fn templates(&self) -> &[Arc<JobTemplate>] {
        &self.templates
    }

    /// Reads record `i` straight from the underlying bytes.
    pub fn record(&self, i: usize) -> Result<BinRecord, BinError> {
        let start = i * RECORD_BYTES;
        let rec = decode_record(&self.records[start..start + RECORD_BYTES]);
        if rec.template_index as usize >= self.templates.len() {
            return Err(BinError::BadTemplateIndex {
                index: rec.template_index,
                count: self.templates.len() as u32,
            });
        }
        Ok(rec)
    }

    /// Materializes job `i` (clones its template out of the table).
    pub fn job(&self, i: usize) -> Result<JobSpec, BinError> {
        let rec = self.record(i)?;
        Ok(JobSpec {
            template: (*self.templates[rec.template_index as usize]).clone(),
            arrival: rec.arrival,
            deadline: rec.deadline,
        })
    }

    /// Materializes the whole trace.
    pub fn to_trace(&self) -> Result<WorkloadTrace, BinError> {
        let mut jobs = Vec::with_capacity(self.job_count);
        for i in 0..self.job_count {
            jobs.push(self.job(i)?);
        }
        Ok(WorkloadTrace { meta: self.meta.clone(), jobs })
    }
}

/// Decodes SIMMRBIN bytes into a materialized trace.
pub fn decode_trace(bytes: &[u8]) -> Result<WorkloadTrace, BinError> {
    BinTraceReader::parse(bytes)?.to_trace()
}

/// True when `bytes` starts with the SIMMRBIN magic (format sniffing).
pub fn is_binary_trace(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && bytes[..8] == MAGIC
}

/// Streaming file reader: a [`JobSource`] whose resident memory is the
/// template table plus one buffered read — independent of the job count.
///
/// `open` makes one sequential checksum pass over the body (so a
/// truncated or corrupted file is rejected up front, before the engine
/// starts), then rewinds and yields arrival-ordered records on demand,
/// each under its record index as job id (as [`decode_trace`] numbers it).
#[derive(Debug)]
pub struct BinTraceSource {
    reader: BufReader<File>,
    meta: TraceMeta,
    templates: Vec<Arc<JobTemplate>>,
    job_count: u64,
    yielded: u64,
    first_arrival: Option<SimTime>,
    last_arrival: SimTime,
}

impl BinTraceSource {
    /// Opens and validates `path`, leaving the cursor at the first record.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, BinError> {
        let mut reader = BufReader::new(File::open(path)?);
        let mut header_bytes = [0u8; HEADER_BYTES];
        let got = read_up_to(&mut reader, &mut header_bytes)?;
        let header = Header::parse(&header_bytes[..got])?;
        let body_len = header.body_bytes()?;

        // Checksum pass: stream the body once through a scratch buffer.
        let mut crc = Crc32::new();
        let mut remaining = body_len;
        let mut buf = [0u8; 64 * 1024];
        while remaining > 0 {
            let want = remaining.min(buf.len() as u64) as usize;
            reader.read_exact(&mut buf[..want]).map_err(truncated_eof)?;
            crc.update(&buf[..want]);
            remaining -= want as u64;
        }
        let actual = crc.finish();
        if actual != header.crc {
            return Err(BinError::ChecksumMismatch { expected: header.crc, actual });
        }

        // Rewind and decode the small sections; records then stream.
        reader.seek(SeekFrom::Start(HEADER_BYTES as u64))?;
        let mut meta_bytes = vec![0u8; header.meta_len as usize];
        reader.read_exact(&mut meta_bytes).map_err(truncated_eof)?;
        let mut template_bytes = vec![0u8; header.template_bytes as usize];
        reader.read_exact(&mut template_bytes).map_err(truncated_eof)?;
        Ok(BinTraceSource {
            reader,
            meta: decode_meta(&meta_bytes)?,
            templates: decode_templates(&template_bytes, header.template_count)?,
            job_count: header.job_count,
            yielded: 0,
            first_arrival: (header.job_count > 0)
                .then(|| SimTime::from_millis(header.first_arrival)),
            last_arrival: SimTime::ZERO,
        })
    }

    /// Trace provenance.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The interned template table.
    pub fn templates(&self) -> &[Arc<JobTemplate>] {
        &self.templates
    }

    fn next_record(&mut self) -> Result<Option<SourcedJob>, BinError> {
        if self.yielded == self.job_count {
            return Ok(None);
        }
        let mut rec = [0u8; RECORD_BYTES];
        self.reader.read_exact(&mut rec).map_err(truncated_eof)?;
        let rec = decode_record(&rec);
        let template = self.templates.get(rec.template_index as usize).cloned().ok_or(
            BinError::BadTemplateIndex {
                index: rec.template_index,
                count: self.templates.len() as u32,
            },
        )?;
        if rec.arrival < self.last_arrival {
            return Err(BinError::ArrivalOrder);
        }
        self.last_arrival = rec.arrival;
        let id = JobId(self.yielded as u32);
        self.yielded += 1;
        Ok(Some(SourcedJob { id, template, arrival: rec.arrival, deadline: rec.deadline }))
    }
}

impl JobSource for BinTraceSource {
    fn job_count(&self) -> usize {
        self.job_count as usize
    }

    fn first_arrival(&self) -> Option<SimTime> {
        self.first_arrival
    }

    fn next_job(&mut self) -> Result<Option<SourcedJob>, SourceError> {
        self.next_record().map_err(|e| SourceError::new(e.to_string()))
    }
}

fn truncated_eof(e: io::Error) -> BinError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        BinError::Truncated
    } else {
        BinError::Io(e)
    }
}

/// `read_exact` that tolerates a short file (returns the byte count).
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, BinError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(BinError::Io(e)),
        }
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_types::TraceMeta;

    fn template(name: &str, maps: Vec<u64>, reduces: Vec<u64>) -> JobTemplate {
        let (first, typical) =
            if reduces.is_empty() { (vec![], vec![]) } else { (vec![5], vec![7, 9]) };
        JobTemplate::new(name, maps, first, typical, reduces).unwrap()
    }

    fn sample_trace() -> WorkloadTrace {
        let mut tr = WorkloadTrace::new("bin unit", "test");
        tr.meta.seed = Some(0xBEEF);
        let a = template("alpha", vec![10, 20], vec![30]);
        let b = template("beta", vec![u64::MAX], vec![]);
        tr.push(JobSpec::new(a.clone(), SimTime::from_secs(1)));
        tr.push(JobSpec::new(b, SimTime::from_secs(2)).with_deadline(SimTime::from_secs(9)));
        tr.push(JobSpec::new(a, SimTime::from_secs(3)));
        tr
    }

    #[test]
    fn round_trip_and_interning() {
        let tr = sample_trace();
        let bytes = encode_trace(&tr).unwrap();
        let reader = BinTraceReader::parse(&bytes).unwrap();
        // jobs 0 and 2 share one template entry
        assert_eq!(reader.templates().len(), 2);
        assert_eq!(reader.job_count(), 3);
        assert_eq!(reader.first_arrival(), Some(SimTime::from_secs(1)));
        assert_eq!(reader.to_trace().unwrap(), tr);
    }

    #[test]
    fn canonical_arrival_order() {
        let mut tr = WorkloadTrace::new("order", "test");
        tr.push(JobSpec::new(template("t", vec![1], vec![]), SimTime::from_secs(5)));
        tr.push(JobSpec::new(template("t", vec![2], vec![]), SimTime::from_secs(2)));
        tr.push(JobSpec::new(template("t", vec![3], vec![]), SimTime::from_secs(2)));
        let back = decode_trace(&encode_trace(&tr).unwrap()).unwrap();
        assert_eq!(back.jobs[0].template.map_durations, vec![2]); // ties keep input order
        assert_eq!(back.jobs[1].template.map_durations, vec![3]);
        assert_eq!(back.jobs[2].template.map_durations, vec![1]);
    }

    #[test]
    fn empty_trace_round_trips() {
        let tr = WorkloadTrace::new("empty", "test");
        let bytes = encode_trace(&tr).unwrap();
        let reader = BinTraceReader::parse(&bytes).unwrap();
        assert_eq!(reader.job_count(), 0);
        assert_eq!(reader.first_arrival(), None);
        assert_eq!(reader.to_trace().unwrap(), tr);
    }

    #[test]
    fn corruption_is_typed_not_panicky() {
        let bytes = encode_trace(&sample_trace()).unwrap();
        // bad magic
        assert!(matches!(BinTraceReader::parse(b"NOTATRACE").unwrap_err(), BinError::BadMagic));
        // wrong version
        let mut v = bytes.clone();
        v[8] = 0x7F;
        assert!(matches!(BinTraceReader::parse(&v).unwrap_err(), BinError::BadVersion(0x7F)));
        // truncation at every prefix length
        for cut in 0..bytes.len() {
            let err = BinTraceReader::parse(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, BinError::Truncated | BinError::BadMagic), "cut at {cut}: {err}");
        }
        // single flipped body byte → checksum mismatch
        let mut f = bytes.clone();
        let last = f.len() - 1;
        f[last] ^= 0xFF;
        assert!(matches!(
            BinTraceReader::parse(&f).unwrap_err(),
            BinError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn writer_enforces_contract() {
        let meta = TraceMeta::default();
        let mut w = BinTraceWriter::new(io::Cursor::new(Vec::new()), &meta);
        let t = template("t", vec![1], vec![]);
        let id = w.intern_template(&t).unwrap();
        assert_eq!(w.intern_template(&t).unwrap(), id); // dedup
        w.push_job(id, SimTime::from_secs(2), None).unwrap();
        // interning is sealed after the first record
        assert!(matches!(w.intern_template(&t), Err(BinError::TemplatesSealed)));
        // arrivals must be monotone
        assert!(matches!(w.push_job(id, SimTime::from_secs(1), None), Err(BinError::ArrivalOrder)));
        // unknown template index
        assert!(matches!(
            w.push_job(9, SimTime::from_secs(3), None),
            Err(BinError::BadTemplateIndex { index: 9, count: 1 })
        ));
    }

    #[test]
    fn streaming_source_matches_reader() {
        let tr = sample_trace();
        let bytes = encode_trace(&tr).unwrap();
        let path =
            std::env::temp_dir().join(format!("simmr-binfmt-src-{}.trace.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mut src = BinTraceSource::open(&path).unwrap();
        assert_eq!(src.job_count(), 3);
        assert_eq!(src.first_arrival(), Some(SimTime::from_secs(1)));
        let mut seen = Vec::new();
        while let Some(job) = src.next_job().unwrap() {
            seen.push((job.template.name.to_string(), job.arrival, job.deadline));
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], ("alpha".into(), SimTime::from_secs(1), None));
        assert_eq!(seen[1].2, Some(SimTime::from_secs(9)));
        // a truncated file fails at open, not mid-stream
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(BinTraceSource::open(&path).unwrap_err(), BinError::Truncated));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn streaming_source_ids_are_record_indices() {
        let bytes = encode_trace(&sample_trace()).unwrap();
        let path =
            std::env::temp_dir().join(format!("simmr-binfmt-ids-{}.trace.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mut src = BinTraceSource::open(&path).unwrap();
        let mut ids = Vec::new();
        while let Some(job) = src.next_job().unwrap() {
            ids.push(job.id.0);
        }
        assert_eq!(ids, vec![0, 1, 2]);
        let _ = std::fs::remove_file(&path);
    }
}
