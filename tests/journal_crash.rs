//! Crash-consistency and integrity properties of the checkpoint journal.
//!
//! Truncation: a journal cut at *every* possible byte offset — the on-disk
//! states a power cut mid-append could leave behind with a non-atomic
//! writer — must either load as a clean prefix of the original records or
//! be refused with a typed usage error. Never a panic, and never a
//! silently merged partial record. The journal's writer appends each
//! flush's lines to the file, so a crash mid-append leaves exactly these
//! states: every earlier line intact plus a torn tail. Resuming from any of
//! them and recording the lost runs must end in a file byte-identical to an
//! uninterrupted run's — no torn bytes stranded mid-file.
//!
//! Bit flips: a journal with any single bit flipped, at every byte offset,
//! must either be refused with a usage error (only for a flip inside the
//! header line) or load only byte-exact original values — the flipped
//! record is quarantined, never replayed — and resuming it must end holding
//! every record exactly once.

use dls_suite::dls_repro::journal::{run_key, Journal, JournalMeta, JOURNAL_FILE};
use dls_suite::dls_rng::SplitMix64;
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dls-journal-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The campaign identity, built once: `JournalMeta::new` asks git for the
/// build's revision, and the properties below open thousands of journals.
fn meta() -> JournalMeta {
    static META: OnceLock<JournalMeta> = OnceLock::new();
    META.get_or_init(|| JournalMeta::new("fig5", "n=1024 runs=6", 7)).clone()
}

/// The journal under test: six records with seed-derived f64 payloads
/// (shortest-round-trip serialization, the real campaign value type).
fn build_reference(dir: &Path) -> Vec<(String, Value)> {
    let mut rng = SplitMix64::new(0xC4A5);
    let records: Vec<(String, Value)> = (0..6u32)
        .map(|i| {
            let v =
                Value::Array(vec![Value::F64(rng.next_f64() * 100.0), Value::U64(u64::from(i))]);
            (run_key("n=1024 p=2", 0xAB, i), v)
        })
        .collect();
    let j = Journal::open(dir, &meta()).unwrap();
    for (k, v) in &records {
        j.record(k.clone(), v.clone());
    }
    j.flush().unwrap();
    records
}

/// Records every run of `records` the journal in `dir` lacks, in order,
/// flushing after each one (the append path), and returns the file bytes.
fn resume_and_finish(dir: &Path, records: &[(String, Value)]) -> Vec<u8> {
    let j = Journal::open(dir, &meta()).unwrap().with_flush_every(1);
    for (k, v) in records {
        if j.lookup(k).is_none() {
            j.record(k.clone(), v.clone());
        }
    }
    j.flush().unwrap();
    std::fs::read(dir.join(JOURNAL_FILE)).unwrap()
}

#[test]
fn every_truncation_offset_loads_a_clean_prefix_or_refuses_with_a_typed_error() {
    let ref_dir = tmp_dir("ref");
    let records = build_reference(&ref_dir);
    let bytes = std::fs::read(ref_dir.join(JOURNAL_FILE)).unwrap();
    assert!(bytes.len() > 200, "reference journal is implausibly small");

    let work = tmp_dir("work");
    let mut loaded_prefixes = 0u32;
    let mut refusals = 0u32;
    for cut in 0..=bytes.len() {
        std::fs::write(work.join(JOURNAL_FILE), &bytes[..cut]).unwrap();
        match Journal::open(&work, &meta()) {
            Ok(j) => {
                // Count the loaded prefix, then verify it IS a prefix:
                // records 0..r byte-exact originals, r.. absent. Any
                // reordering, merge, or partial decode fails here.
                let r = j.resumed() as usize;
                assert!(r <= records.len(), "cut@{cut}: loaded more records than were written");
                for (i, (k, v)) in records.iter().enumerate() {
                    let got = j.lookup(k);
                    if i < r {
                        assert_eq!(got.as_ref(), Some(v), "cut@{cut}: record {i} corrupted");
                    } else {
                        assert_eq!(got, None, "cut@{cut}: phantom record {i} after truncation");
                    }
                }
                loaded_prefixes += 1;
            }
            Err(e) => {
                // The only acceptable refusal is the actionable usage
                // error ("pass a fresh --resume directory"), never an
                // uncontrolled failure.
                assert!(e.is_usage(), "cut@{cut}: expected a usage error, got: {e}");
                refusals += 1;
            }
        }
    }
    // Both outcomes must actually occur across the sweep: cuts inside the
    // header refuse, cuts on line boundaries (and inside the torn tail)
    // load a prefix.
    assert!(loaded_prefixes > 0, "no truncation offset loaded cleanly");
    assert!(refusals > 0, "no truncation offset was refused (header cuts must be)");

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_truncated_then_resumed_journal_reexecutes_only_the_lost_suffix() {
    // End-to-end: tear the last record off, reopen, and confirm the next
    // session records exactly the missing run and round-trips the rest.
    let dir = tmp_dir("resume");
    let records = build_reference(&dir);
    let path = dir.join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let keep: Vec<&str> = text.lines().collect();
    std::fs::write(&path, keep[..keep.len() - 1].join("\n") + "\n").unwrap();

    let j = Journal::open(&dir, &meta()).unwrap();
    assert_eq!(j.resumed() as usize, records.len() - 1);
    let (lost_key, lost_value) = records.last().unwrap();
    assert_eq!(j.lookup(lost_key), None);
    j.record(lost_key.clone(), lost_value.clone());
    j.flush().unwrap();

    let j2 = Journal::open(&dir, &meta()).unwrap();
    assert_eq!(j2.resumed() as usize, records.len());
    for (k, v) in &records {
        assert_eq!(j2.lookup(k).as_ref(), Some(v));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_from_every_truncation_offset_ends_byte_identical_to_a_clean_run() {
    let ref_dir = tmp_dir("ident-ref");
    let records = build_reference(&ref_dir);
    let reference = std::fs::read(ref_dir.join(JOURNAL_FILE)).unwrap();

    let work = tmp_dir("ident-work");
    let mut resumed = 0u32;
    for cut in 0..=reference.len() {
        std::fs::write(work.join(JOURNAL_FILE), &reference[..cut]).unwrap();
        if Journal::open(&work, &meta()).is_err() {
            continue; // a cut inside the header: refused (pinned above)
        }
        let finished = resume_and_finish(&work, &records);
        assert!(
            finished == reference,
            "cut@{cut}: resumed journal differs from the clean run:\n{}",
            String::from_utf8_lossy(&finished)
        );
        resumed += 1;
    }
    // Every cut past the header resumes (the header line is the only
    // refusal zone), and so does the empty file.
    let header_len = reference.iter().position(|&b| b == b'\n').unwrap();
    assert!(resumed as usize >= reference.len() - header_len, "only {resumed} cuts resumed");

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_complete_last_line_without_its_newline_is_kept_and_healed() {
    let ref_dir = tmp_dir("nl-ref");
    let records = build_reference(&ref_dir);
    let reference = std::fs::read(ref_dir.join(JOURNAL_FILE)).unwrap();
    let dir = tmp_dir("nl");
    std::fs::write(dir.join(JOURNAL_FILE), &reference[..reference.len() - 1]).unwrap();

    // The last record is whole: it loads, and is not counted as torn.
    let j = Journal::open(&dir, &meta()).unwrap();
    assert_eq!(j.resumed() as usize, records.len());
    assert_eq!(j.stats().quarantined, 0);
    // Nothing new to record, yet the first flush restores the newline
    // instead of leaving a file the next append would glue onto.
    j.flush().unwrap();
    assert!(std::fs::read(dir.join(JOURNAL_FILE)).unwrap() == reference);

    // With the last record lost as well, so the penultimate one is the
    // unterminated line: the re-recorded run lands on its own line.
    let last_line_start =
        reference[..reference.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
    std::fs::write(dir.join(JOURNAL_FILE), &reference[..last_line_start - 1]).unwrap();
    assert!(resume_and_finish(&dir, &records) == reference);

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_bit_flip_is_refused_in_the_header_or_quarantined_and_reexecuted() {
    let ref_dir = tmp_dir("flip-ref");
    let records = build_reference(&ref_dir);
    let reference = std::fs::read(ref_dir.join(JOURNAL_FILE)).unwrap();
    // The header line, its `\n` included: the only region a refusal may
    // come from.
    let header_end = reference.iter().position(|&b| b == b'\n').unwrap();

    let work = tmp_dir("flip-work");
    let (mut refused, mut quarantined) = (0u32, 0u32);
    for at in 0..reference.len() {
        for bit in 0..8 {
            let mut bytes = reference.clone();
            bytes[at] ^= 1 << bit;
            std::fs::write(work.join(JOURNAL_FILE), &bytes).unwrap();
            let j = match Journal::open(&work, &meta()) {
                Ok(j) => j,
                Err(e) => {
                    assert!(e.is_usage(), "flip {bit}@{at}: expected a usage error, got: {e}");
                    assert!(at <= header_end, "flip {bit}@{at}: a record flip refused the journal");
                    refused += 1;
                    continue;
                }
            };
            assert!(at > header_end, "flip {bit}@{at}: a header flip was accepted");
            // Only byte-exact originals are served: the flipped record (and
            // a neighbour its `\n` was merged with) is simply absent.
            let mut served = 0;
            for (i, (k, v)) in records.iter().enumerate() {
                if let Some(got) = j.lookup(k) {
                    assert_eq!(&got, v, "flip {bit}@{at}: record {i} replayed a wrong value");
                    served += 1;
                }
            }
            assert!(served < records.len(), "flip {bit}@{at}: the flipped record was replayed");
            assert_eq!(j.resumed() as usize, served);
            assert!(j.stats().quarantined >= 1, "flip {bit}@{at}: nothing quarantined");
            drop(j);
            quarantined += 1;

            // Resuming re-executes what was dropped: every record, once.
            let finished = resume_and_finish(&work, &records);
            let j = Journal::open(&work, &meta()).unwrap();
            assert_eq!(j.stats().quarantined, 0, "flip {bit}@{at}: the rewrite kept a bad line");
            assert_eq!(j.resumed() as usize, records.len(), "flip {bit}@{at}");
            for (k, v) in &records {
                assert_eq!(j.lookup(k).as_ref(), Some(v), "flip {bit}@{at}");
            }
            let lines = finished.iter().filter(|&&b| b == b'\n').count();
            assert_eq!(lines, 1 + records.len(), "flip {bit}@{at}: a record is held twice");
        }
    }
    assert_eq!(refused as usize, 8 * (header_end + 1));
    assert_eq!(quarantined as usize, 8 * (reference.len() - header_end - 1));

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&work);
}
