//! Adversarial-input tests for the `.xft` codec: a decoder fed a
//! truncated or bit-flipped trace must fail with a structured
//! [`XftError`] — never panic, and never succeed with silently missing
//! records. The corpus is a real recorded detection run; every mutation
//! is deterministic, so a failure here is a stable repro.

use std::panic::{catch_unwind, AssertUnwindSafe};

use std::sync::OnceLock;

use rand::{rngs::StdRng, Rng, SeedableRng};
use xfd::pmem::PersistDomain;
use xfd::xfdetector::offline::RecordedRun;
use xfd::xfdetector::{XfConfig, XfDetector};
use xfd::xffuzz::generate;
use xfd::xfstream::{analyze_xft, encode_recorded_run, read_recorded_run, XftError};

/// The corpus trace: a deterministically generated fuzz program small
/// enough that the O(len²) exhaustive-truncation sweep stays fast, with
/// transactions, flushes and allocator ops so every record tag appears.
fn corpus() -> &'static (RecordedRun, Vec<u8>) {
    static CORPUS: OnceLock<(RecordedRun, Vec<u8>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let cfg = XfConfig {
            record_trace: true,
            ..XfConfig::default()
        };
        let outcome = XfDetector::new(cfg)
            .run(generate(7, 3, 24))
            .expect("detection runs");
        let run = outcome.recorded.expect("trace recorded");
        let bytes = encode_recorded_run(&run).expect("encoding succeeds");
        (run, bytes)
    })
}

fn decode(bytes: &[u8]) -> Result<RecordedRun, XftError> {
    read_recorded_run(bytes)
}

#[test]
fn truncation_at_every_offset_is_rejected_or_lossless() {
    let (run, bytes) = corpus();
    let reference = serde_json::to_string(&run).unwrap();
    assert!(bytes.len() > 64, "corpus too small to be interesting");

    for cut in 0..bytes.len() {
        let prefix = &bytes[..cut];
        let result = catch_unwind(AssertUnwindSafe(|| decode(prefix)))
            .unwrap_or_else(|_| panic!("decoder panicked on truncation at {cut}"));
        match result {
            Err(_) => {} // structured rejection: the expected outcome
            Ok(decoded) => {
                // Tolerable only if the prefix still carries the whole
                // trace (e.g. the cut removed trailing padding): a short
                // trace sneaking through as Ok is the bug this guards.
                assert_eq!(
                    serde_json::to_string(&decoded).unwrap(),
                    reference,
                    "truncation at {cut}/{} decoded to a different trace",
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn truncation_never_panics_the_streaming_analyzer() {
    let (_, bytes) = corpus();
    // The analyzer consumes records as they decode; a truncated stream
    // must surface the error, not a partial report dressed up as Ok.
    for cut in 0..bytes.len() {
        let prefix = &bytes[..cut];
        let result = catch_unwind(AssertUnwindSafe(|| analyze_xft(prefix, true)))
            .unwrap_or_else(|_| panic!("analyzer panicked on truncation at {cut}"));
        assert!(
            result.is_err(),
            "analyze_xft accepted a trace truncated at {cut}/{}",
            bytes.len()
        );
    }
}

#[test]
fn single_bit_flips_never_panic_and_never_shorten_the_trace() {
    let (run, bytes) = corpus();
    let entries = run.entry_count();
    let fps = run.failure_points.len();

    // Every bit of the header region, plus a deterministic pseudo-random
    // sample across the whole stream.
    let mut positions: Vec<(usize, u8)> = (0..bytes.len().min(24))
        .flat_map(|i| (0..8).map(move |b| (i, b)))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
    for _ in 0..512 {
        let at = rng.gen_range_u64(0, bytes.len() as u64) as usize;
        let bit = (rng.next_u64() & 7) as u8;
        positions.push((at, bit));
    }

    for (at, bit) in positions {
        let mut mutated = bytes.clone();
        mutated[at] ^= 1 << bit;
        let result = catch_unwind(AssertUnwindSafe(|| decode(&mutated)))
            .unwrap_or_else(|_| panic!("decoder panicked on bit {bit} of byte {at}"));
        if let Ok(decoded) = result {
            // A flip in a value payload may legitimately decode to a
            // different trace, but the record structure is pinned by the
            // header counts: losing records while reporting Ok is the
            // silent-corruption failure mode.
            assert_eq!(
                decoded.entry_count(),
                entries,
                "bit {bit} of byte {at} silently changed the entry count"
            );
            assert_eq!(
                decoded.failure_points.len(),
                fps,
                "bit {bit} of byte {at} silently changed the failure points"
            );
        }
    }
}

#[test]
fn corrupted_magic_and_version_are_specific_errors() {
    let (_, bytes) = corpus();

    for i in 0..4 {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0x40;
        assert!(
            matches!(decode(&mutated), Err(XftError::BadMagic(_))),
            "flipping magic byte {i} must be BadMagic"
        );
    }

    // Byte 4 is the format version; a far-future version is refused.
    let mut mutated = bytes.clone();
    mutated[4] |= 0x80;
    assert!(
        matches!(decode(&mutated), Err(XftError::UnsupportedVersion(_))),
        "a far-future version must be UnsupportedVersion"
    );

    assert!(decode(&[]).is_err(), "empty input must error");
    assert!(
        matches!(decode(b"not a trace at all"), Err(XftError::BadMagic(_))),
        "foreign bytes must be BadMagic"
    );
}

/// Records the corpus program under `domain` and returns its encoding.
fn recorded_under(domain: PersistDomain) -> (RecordedRun, Vec<u8>) {
    let cfg = XfConfig {
        record_trace: true,
        domain,
        ..XfConfig::default()
    };
    let outcome = XfDetector::new(cfg)
        .run(generate(7, 3, 24))
        .expect("detection runs");
    let run = outcome.recorded.expect("trace recorded");
    let bytes = encode_recorded_run(&run).expect("encoding succeeds");
    (run, bytes)
}

#[test]
fn domain_stamps_round_trip_for_every_non_default_domain() {
    for domain in [
        PersistDomain::Eadr,
        PersistDomain::CxlGpf { reorder_window: 1 },
        PersistDomain::CxlGpf {
            reorder_window: 4096,
        },
    ] {
        let (run, bytes) = recorded_under(domain);
        assert_eq!(run.domain, domain, "recorded run carries the run domain");
        assert_eq!(
            &bytes[..4],
            b"XFT2",
            "{domain}: a domain stamp forces the v2 framing"
        );
        let back = decode(&bytes).expect("stamped trace decodes");
        assert_eq!(back.domain, domain, "{domain}: stamp must round-trip");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&run).unwrap(),
            "{domain}: the stamped round trip must be lossless"
        );
    }
}

#[test]
fn adr_recordings_stay_v1_and_byte_identical_to_the_pre_domain_encoding() {
    // The default domain never stamps: an explicit-ADR recording is
    // byte-for-byte the corpus encoding (which never mentions domains), so
    // pre-domain readers keep working and pre-domain traces decode as ADR.
    let (_, baseline) = corpus();
    let (run, bytes) = recorded_under(PersistDomain::Adr);
    assert_eq!(run.domain, PersistDomain::Adr);
    assert_eq!(&bytes[..4], b"XFT1", "ADR traces keep the v1 framing");
    assert_eq!(
        &bytes, baseline,
        "explicit ADR must not perturb the encoding"
    );
    assert_eq!(
        decode(baseline).expect("v1 decodes").domain,
        PersistDomain::Adr,
        "domain-less v1 traces decode as ADR"
    );
}

#[test]
fn unknown_domain_code_is_a_typed_error_at_exactly_one_offset() {
    // Overwrite each header-region byte with an unassigned domain code: the
    // decoder must report `UnknownDomain(99)` for the stamp byte itself —
    // and for no other position, pinning both the error type and the
    // stamp's location in the framing.
    let (_, bytes) = recorded_under(PersistDomain::Eadr);
    let mut stamp_offsets = Vec::new();
    for at in 0..bytes.len().min(32) {
        let mut mutated = bytes.clone();
        mutated[at] = 99;
        if let Err(XftError::UnknownDomain(code)) =
            catch_unwind(AssertUnwindSafe(|| decode(&mutated)))
                .unwrap_or_else(|_| panic!("decoder panicked on domain code at {at}"))
        {
            assert_eq!(code, 99, "the error must carry the offending code");
            stamp_offsets.push(at);
        }
    }
    assert_eq!(
        stamp_offsets.len(),
        1,
        "exactly one header byte is the domain stamp: {stamp_offsets:?}"
    );
}

/// Hostile length prefixes: a `FileDef` record claiming a 2^45-byte file
/// name, and a v2 header claiming a 2^45-byte schedule. Each must fail as
/// a typed truncation error before anything is allocated.
fn oversize_inputs() -> [(&'static str, Vec<u8>); 2] {
    let len_2_45 = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x08];
    let mut file_def = b"XFT1\x01\x00\x01".to_vec();
    file_def.extend_from_slice(&len_2_45);
    let mut schedule = b"XFT2\x02\x00\x00".to_vec();
    schedule.extend_from_slice(&len_2_45);
    [("file name", file_def), ("schedule", schedule)]
}

fn is_eof(e: &XftError) -> bool {
    matches!(e, XftError::Io(io) if io.kind() == std::io::ErrorKind::UnexpectedEof)
}

#[test]
fn oversize_length_prefixes_are_typed_errors_not_allocations() {
    for (what, bytes) in oversize_inputs() {
        let err = analyze_xft(&bytes, true).unwrap_err();
        assert!(is_eof(&err), "analyze_xft on an oversize {what}: {err}");
        let err = decode(&bytes).unwrap_err();
        assert!(
            is_eof(&err),
            "read_recorded_run on an oversize {what}: {err}"
        );
    }
}
