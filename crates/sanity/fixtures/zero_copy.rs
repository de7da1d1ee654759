// Fixture: the data generator handing out an owned copy of its line
// instead of a view of its arena. Linted as if it lived at
// `crates/core/src/data.rs`; must trip exactly `zero-copy`, once. The
// refcount-bump clone below is the legal way to share a payload, and
// the comment's .to_vec() is a decoy the stripper must blank.
fn next_payload(line: &[u8], last: &Bytes) -> (Bytes, Bytes) {
    (Bytes::copy_from_slice(line), last.clone())
}
