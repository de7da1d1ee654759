//! Workload data: a synthetic stand-in for the AOL search query log.
//!
//! The paper streams 1,000,001 records of the AOL Search Query Log
//! (§III-A1), a dataset that was withdrawn and is not redistributable.
//! [`QueryLogGenerator`] synthesizes records with the same *shape*:
//! five tab-separated columns — anonymous user id, query text, query
//! time, clicked rank (optional), clicked URL (optional) — with a
//! calibrated rate of queries containing the substring `"test"`
//! (the paper's grep hit rate: 3,003 of 1,000,001 ≈ 0.3 %). The queries
//! only depend on column structure, record count, and match rates, so
//! the substitution preserves the measured behaviour (see DESIGN.md).

use bytes::{Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mean interval between records whose query contains `"test"` —
/// 1 / 333 ≈ 0.3 %, the paper's grep selectivity.
pub const GREP_HIT_INTERVAL: u64 = 333;

/// The five-column record schema (paper §III-A1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLogRecord {
    /// Anonymous user id.
    pub user_id: u64,
    /// The issued query.
    pub query: String,
    /// Query time, `YYYY-MM-DD hh:mm:ss`.
    pub query_time: String,
    /// Search-result rank clicked, if any.
    pub item_rank: Option<u32>,
    /// Clicked URL, if any.
    pub click_url: Option<String>,
}

impl QueryLogRecord {
    /// Renders the record as a tab-separated line (the wire format the
    /// data sender ships).
    pub fn to_tsv(&self) -> String {
        let rank = self.item_rank.map(|r| r.to_string()).unwrap_or_default();
        let url = self.click_url.clone().unwrap_or_default();
        format!(
            "{}\t{}\t{}\t{}\t{}",
            self.user_id, self.query, self.query_time, rank, url
        )
    }

    /// Parses a tab-separated line back into a record.
    ///
    /// Returns `None` when the line does not have five columns.
    pub fn from_tsv(line: &str) -> Option<QueryLogRecord> {
        let mut cols = line.split('\t');
        let user_id = cols.next()?.parse().ok()?;
        let query = cols.next()?.to_string();
        let query_time = cols.next()?.to_string();
        let rank_col = cols.next()?;
        let url_col = cols.next()?;
        if cols.next().is_some() {
            return None;
        }
        Some(QueryLogRecord {
            user_id,
            query,
            query_time,
            item_rank: if rank_col.is_empty() {
                None
            } else {
                rank_col.parse().ok()
            },
            click_url: if url_col.is_empty() {
                None
            } else {
                Some(url_col.to_string())
            },
        })
    }
}

const WORDS: &[&str] = &[
    "weather",
    "maps",
    "flight",
    "hotel",
    "movie",
    "music",
    "recipe",
    "news",
    "football",
    "basketball",
    "camera",
    "laptop",
    "phone",
    "garden",
    "insurance",
    "mortgage",
    "lyrics",
    "games",
    "dictionary",
    "translator",
    "horoscope",
    "pizza",
    "restaurant",
    "salary",
    "university",
    "holiday",
    "festival",
    "museum",
    "library",
    "airport",
];

const DOMAINS: &[&str] = &[
    "example.com",
    "search.example.org",
    "shop.example.net",
    "news.example.io",
    "wiki.example.edu",
];

/// Size of one payload arena chunk: about 800 lines.
const ARENA_CHUNK: usize = 64 << 10;

/// Deterministic generator of AOL-shaped records.
///
/// Two generators with the same seed produce identical streams, so every
/// engine and every run of a benchmark observes the same input.
///
/// The stream is specified by [`next_record`](Self::next_record) +
/// [`QueryLogRecord::to_tsv`]; [`next_payload`](Self::next_payload) is
/// the same stream without the typed detour, for the data sender. Its
/// payloads are refcounted views of a generator-owned arena: generating
/// one allocates nothing, and a payload keeps its 64 KiB chunk (not the
/// generator) alive until it is dropped.
#[derive(Debug)]
pub struct QueryLogGenerator {
    rng: StdRng,
    seed: u64,
    index: u64,
    /// The line being formatted, reused from record to record.
    line: Vec<u8>,
    /// Where finished lines live; payloads are views of its chunks.
    arena: BytesMut,
}

impl Clone for QueryLogGenerator {
    /// The clone continues the stream from the same record in an arena
    /// of its own.
    fn clone(&self) -> Self {
        QueryLogGenerator {
            rng: self.rng.clone(),
            seed: self.seed,
            index: self.index,
            line: Vec::new(),
            arena: BytesMut::new(),
        }
    }
}

impl QueryLogGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        QueryLogGenerator {
            rng: StdRng::seed_from_u64(seed),
            seed,
            index: 0,
            line: Vec::new(),
            arena: BytesMut::new(),
        }
    }

    /// The generator's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Records generated so far.
    pub fn generated(&self) -> u64 {
        self.index
    }

    /// Generates the next record.
    pub fn next_record(&mut self) -> QueryLogRecord {
        let index = self.index;
        self.index += 1;
        let user_id = self.rng.gen_range(100_000..10_000_000);
        let word_count = self.rng.gen_range(1usize..=4);
        let mut words = Vec::with_capacity(word_count + 1);
        for _ in 0..word_count {
            words.push(WORDS[self.rng.gen_range(0..WORDS.len())].to_string());
        }
        // Deterministic grep selectivity: every GREP_HIT_INTERVAL-th
        // record carries the "test" marker the grep query searches for.
        if index.is_multiple_of(GREP_HIT_INTERVAL) {
            let pos = self.rng.gen_range(0..=words.len());
            words.insert(pos, "test".to_string());
        }
        let query = words.join(" ");

        let second = index % 60;
        let minute = (index / 60) % 60;
        let hour = (index / 3_600) % 24;
        let day = 1 + (index / 86_400) % 28;
        let query_time = format!("2006-03-{day:02} {hour:02}:{minute:02}:{second:02}");

        // About half of the AOL records carry click information.
        let clicked = self.rng.gen_bool(0.5);
        let item_rank = clicked.then(|| self.rng.gen_range(1..=10));
        let click_url = clicked.then(|| {
            format!(
                "http://{}/{}",
                DOMAINS[self.rng.gen_range(0..DOMAINS.len())],
                words.first().cloned().unwrap_or_default()
            )
        });
        QueryLogRecord {
            user_id,
            query,
            query_time,
            item_rank,
            click_url,
        }
    }

    /// Generates the next record as a tab-separated byte payload:
    /// byte for byte `self.next_record().to_tsv()`.
    pub fn next_payload(&mut self) -> Bytes {
        self.line.clear();
        self.write_line();
        self.pack_line()
    }

    /// [`next_payload`](Self::next_payload) behind an event-time column:
    /// `"<event_micros>\t<line>"`, the open-loop sender's wire format.
    /// The prefix survives every benchmark query: identity/sample/grep
    /// keep the record whole, and projection cuts at the *first* tab —
    /// leaving exactly the event-time column.
    pub fn next_stamped_payload(&mut self, event_micros: i64) -> Bytes {
        self.line.clear();
        if event_micros < 0 {
            self.line.push(b'-');
        }
        push_decimal(&mut self.line, event_micros.unsigned_abs());
        self.line.push(b'\t');
        self.write_line();
        self.pack_line()
    }

    /// Appends the next record's TSV line to `self.line`, drawing what
    /// [`next_record`](Self::next_record) draws, in its order.
    fn write_line(&mut self) {
        let index = self.index;
        self.index += 1;
        let user_id: u64 = self.rng.gen_range(100_000..10_000_000);
        let mut word_count = self.rng.gen_range(1usize..=4);
        let mut words = [""; 5];
        for word in &mut words[..word_count] {
            *word = WORDS[self.rng.gen_range(0..WORDS.len())];
        }
        if index.is_multiple_of(GREP_HIT_INTERVAL) {
            let pos = self.rng.gen_range(0..=word_count);
            words.copy_within(pos..word_count, pos + 1);
            words[pos] = "test";
            word_count += 1;
        }
        let click = self.rng.gen_bool(0.5).then(|| {
            let rank: u32 = self.rng.gen_range(1..=10);
            (rank, DOMAINS[self.rng.gen_range(0..DOMAINS.len())])
        });

        let line = &mut self.line;
        push_decimal(line, user_id);
        let mut separator = b'\t';
        for word in &words[..word_count] {
            line.push(separator);
            line.extend_from_slice(word.as_bytes());
            separator = b' ';
        }
        line.extend_from_slice(b"\t2006-03-");
        push_two_digits(line, 1 + (index / 86_400) % 28);
        line.push(b' ');
        push_two_digits(line, (index / 3_600) % 24);
        line.push(b':');
        push_two_digits(line, (index / 60) % 60);
        line.push(b':');
        push_two_digits(line, index % 60);
        line.push(b'\t');
        match click {
            Some((rank, domain)) => {
                push_decimal(line, u64::from(rank));
                line.extend_from_slice(b"\thttp://");
                line.extend_from_slice(domain.as_bytes());
                line.push(b'/');
                line.extend_from_slice(words[0].as_bytes());
            }
            None => line.push(b'\t'),
        }
    }

    /// Moves the finished line into the arena and returns the view of
    /// it, starting a fresh pooled chunk when the current one is full.
    fn pack_line(&mut self) -> Bytes {
        if self.arena.capacity() < self.line.len() {
            self.arena = BytesMut::with_capacity(ARENA_CHUNK);
        }
        self.arena.pack_view(&self.line)
    }

    /// Generates `n` payloads.
    pub fn payloads(&mut self, n: u64) -> Vec<Bytes> {
        (0..n).map(|_| self.next_payload()).collect()
    }
}

/// Appends `value` in decimal.
fn push_decimal(line: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    line.extend_from_slice(&digits[at..]);
}

/// Appends `value` (below 100) as two digits, zero-padded.
fn push_two_digits(line: &mut Vec<u8>, value: u64) {
    line.extend_from_slice(&[b'0' + (value / 10) as u8, b'0' + (value % 10) as u8]);
}

/// Number of records whose query contains `"test"` among the first `n`
/// generated records.
pub fn expected_grep_hits(n: u64) -> u64 {
    n.div_ceil(GREP_HIT_INTERVAL)
}

/// Deterministic per-record predicate for the sample query: keeps about
/// `percent`% of records, decided purely by record content so every
/// engine and API produces the identical sample (StreamBench's sample
/// query keeps ~40 %).
pub fn sample_keeps(payload: &[u8], percent: u32) -> bool {
    // FNV-1a over the payload: cheap, stable, well-mixed.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    (hash % 100) < u64::from(percent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_by_seed() {
        let mut a = QueryLogGenerator::new(7);
        let mut b = QueryLogGenerator::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_record(), b.next_record());
        }
        let mut c = QueryLogGenerator::new(8);
        let differs = (0..100).any(|_| a.next_payload() != c.next_payload());
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn five_columns_roundtrip() {
        let mut g = QueryLogGenerator::new(1);
        for _ in 0..200 {
            let record = g.next_record();
            let tsv = record.to_tsv();
            assert_eq!(tsv.matches('\t').count(), 4, "five columns: {tsv}");
            assert_eq!(QueryLogRecord::from_tsv(&tsv), Some(record));
        }
    }

    #[test]
    fn from_tsv_rejects_malformed() {
        assert!(QueryLogRecord::from_tsv("only\tthree\tcolumns").is_none());
        assert!(QueryLogRecord::from_tsv("a\tb\tc\td\te\tf").is_none());
        assert!(QueryLogRecord::from_tsv("notanumber\tq\tt\t\t").is_none());
    }

    #[test]
    fn grep_rate_matches_paper() {
        let mut g = QueryLogGenerator::new(42);
        let n = 10_000u64;
        let hits = (0..n)
            .filter(|_| {
                let payload = g.next_payload();
                payload.windows(4).any(|w| w == b"test")
            })
            .count() as u64;
        assert_eq!(hits, expected_grep_hits(n));
        let rate = hits as f64 / n as f64;
        assert!(
            (rate - 0.003).abs() < 0.0005,
            "rate {rate} should be ~0.3 %"
        );
    }

    #[test]
    fn grep_marker_only_where_expected() {
        let mut g = QueryLogGenerator::new(3);
        for i in 0..1000u64 {
            let record = g.next_record();
            let has_marker = record.query.contains("test");
            assert_eq!(has_marker, i % GREP_HIT_INTERVAL == 0, "record {i}");
        }
    }

    #[test]
    fn sample_rate_approximately_forty_percent() {
        let mut g = QueryLogGenerator::new(11);
        let n = 20_000;
        let kept = (0..n)
            .filter(|_| sample_keeps(&g.next_payload(), 40))
            .count();
        let rate = kept as f64 / f64::from(n);
        assert!((rate - 0.40).abs() < 0.02, "sample rate {rate}");
    }

    #[test]
    fn sample_is_deterministic_on_content() {
        assert_eq!(sample_keeps(b"abc", 40), sample_keeps(b"abc", 40));
        assert!(sample_keeps(b"anything", 100));
        assert!(!sample_keeps(b"anything", 0));
    }

    #[test]
    fn timestamps_are_well_formed() {
        let mut g = QueryLogGenerator::new(5);
        let r = g.next_record();
        assert_eq!(r.query_time.len(), 19);
        assert!(r.query_time.starts_with("2006-03-"));
    }
}
