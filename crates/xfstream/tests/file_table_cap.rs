//! The process-global file-name table is bounded: decoding a trace that
//! names more new files than the table can take fails with a typed error
//! and leaves the table as it was. A test binary of its own, because the
//! table lives as long as the process.

use xfdetector::offline::RecordedRun;
use xfstream::{analyze_xft, encode_recorded_run, XftError};
use xftrace::{interned_file_bytes, Op, OwnedTraceEntry, Stage, MAX_INTERNED_FILE_BYTES};

/// A pre-failure write in `file`.
fn write_in(file: String) -> OwnedTraceEntry {
    OwnedTraceEntry {
        op: Op::Write {
            addr: 0x1000_0000,
            size: 8,
        },
        file,
        line: 1,
        tid: 0,
        stage: Stage::Pre,
        internal: false,
        checked: true,
    }
}

/// A trace of one write in each of `files`.
fn trace_of(files: impl IntoIterator<Item = String>) -> Vec<u8> {
    let run = RecordedRun {
        pre: files.into_iter().map(write_in).collect(),
        ..RecordedRun::default()
    };
    encode_recorded_run(&run).expect("encode")
}

#[test]
fn decoding_past_the_cap_fails_and_does_not_grow_the_table() {
    const NAME_LEN: usize = 1000;
    let name = |i: usize| format!("{i:0NAME_LEN$}.rs");
    // Twice the cap, in distinct names.
    let count = 2 * MAX_INTERNED_FILE_BYTES / NAME_LEN;
    let flood = trace_of((0..count).map(name));

    let err = analyze_xft(&flood, true).expect_err("the table cannot take every name");
    assert!(matches!(err, XftError::FileTableFull), "{err}");
    let full = interned_file_bytes();
    assert!(full <= MAX_INTERNED_FILE_BYTES, "{full} bytes interned");
    assert!(
        full + name(0).len() > MAX_INTERNED_FILE_BYTES,
        "the decode filled the table before failing: {full} bytes"
    );

    let again = analyze_xft(&flood, true).expect_err("still full");
    assert!(matches!(again, XftError::FileTableFull), "{again}");
    assert_eq!(
        interned_file_bytes(),
        full,
        "a second decode grew the table"
    );

    // Names the table already holds still decode.
    let known = trace_of([name(0), name(1)]);
    analyze_xft(&known, true).expect("interned names resolve");
    assert_eq!(interned_file_bytes(), full);
}
