//! Golden digests of the reports: the bit-identity invariant. The
//! pipeline's output bytes for every workload input are pinned in
//! `golden.digest` (`workload label fnv64` per line); a change that
//! alters any report byte fails the benchmark until the file is updated
//! on purpose.

const GOLDEN: &str = include_str!("../golden.digest");

/// Compares a report digest with its golden value.
///
/// # Errors
///
/// Names the report and both digests when they differ or none is
/// committed.
pub fn check(workload: &str, label: &str, digest: u64) -> Result<(), String> {
    let want = GOLDEN.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()? == label)
            .then(|| u64::from_str_radix(f.next()?, 16).ok())
            .flatten()
    });
    match want {
        Some(w) if w == digest => Ok(()),
        Some(w) => Err(format!(
            "{workload} {label}: report digest {digest:016x}, golden.digest has {w:016x}"
        )),
        None => Err(format!(
            "{workload} {label}: no golden digest (this run: `{workload} {label} {digest:016x}`)"
        )),
    }
}
