//! The `tcmp1` wire format from a peer's side: byte-exact golden
//! frames, hostile payloads that must be refused cheaply, and property
//! tests over arbitrary bytes, truncations and bit flips of valid
//! frames. Every reader returns a value or an error; none may panic.

use proptest::prelude::*;
use std::io::Cursor;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;
use tcm_proto::{
    read_frame, write_frame, Event, JobKind, JobProgress, JobSpec, JobState, JobStatusInfo,
    Request, Response, ServerInfo, SweepSpec, WorkloadRef, MAX_FRAME_LEN,
};

fn submit() -> Request {
    Request::SubmitJob(JobSpec {
        priority: 1,
        deadline_ms: Some(30_000),
        max_attempts: 3,
        kind: JobKind::Sweep(SweepSpec {
            policies: vec!["fr-fcfs".into(), "tcm".into()],
            workloads: vec![
                WorkloadRef::Named("B".into()),
                WorkloadRef::Random {
                    seed: 7,
                    threads: 4,
                    intensity_bits: 0.75f64.to_bits(),
                },
            ],
            seeds: vec![0, 3],
            horizon: 200_000,
            topology: Some("2x2".into()),
            telemetry: true,
        }),
    })
}

fn status() -> Response {
    Response::Status {
        jobs: vec![JobStatusInfo {
            id: 1,
            priority: 2,
            state: JobState::Running,
            detail: "3/10 cells, 1 failure:\ncell-failure policy=\"TCM\"\t\u{7} …".into(),
            progress: Some(JobProgress {
                total: 10,
                done: 3,
                failed: 1,
                resumed: 2,
            }),
        }],
        server: Some(ServerInfo {
            version: "0.3.0".into(),
            pid: 4242,
            uptime_ms: 123_456,
            socket: "/tmp/tcm \"serve\".sock".into(),
            queue_capacity: 64,
            queue_depth: 1,
            workers: 4,
            workers_busy: 2,
            draining: true,
        }),
    }
}

fn cell_result(policy: String, workload: String, ws_bits: u64, hs_bits: u64) -> Response {
    Response::Event(Event::CellResult {
        job: 7,
        policy,
        workload,
        seed: 17,
        ws_bits,
        hs_bits,
        ms_bits: f64::INFINITY.to_bits(),
        resumed: true,
    })
}

fn nan_cell_result() -> Response {
    cell_result(
        "TCM".into(),
        "B".into(),
        3.837_261_092_f64.to_bits(),
        f64::NAN.to_bits(),
    )
}

/// A submitted sweep, a status reply and a cell result with NaN bits,
/// as the `tcmp1` bytes this protocol version puts on the wire.
const GOLDEN_FRAMES: &str = include_str!("fixtures/frames.tcmp1");

#[test]
fn frames_match_the_committed_golden() {
    let mut stream = Vec::new();
    for payload in [
        submit().encode(),
        status().encode(),
        nan_cell_result().encode(),
    ] {
        write_frame(&mut stream, &payload).unwrap();
    }
    assert_eq!(String::from_utf8(stream).unwrap(), GOLDEN_FRAMES);

    let mut r = Cursor::new(GOLDEN_FRAMES.as_bytes());
    let mut next = || read_frame(&mut r).unwrap().unwrap();
    assert_eq!(Request::decode(&next()).unwrap(), submit());
    assert_eq!(Response::decode(&next()).unwrap(), status());
    assert_eq!(Response::decode(&next()).unwrap(), nan_cell_result());
}

#[test]
fn booleans_are_not_integers() {
    for ty in ["cancel_job", "watch", "job_status"] {
        let frame = format!("{{\"v\":1,\"type\":\"{ty}\",\"id\":true}}");
        assert!(Request::decode(&frame).is_err(), "{frame}");
    }
    assert!(Request::decode("{\"v\":true,\"type\":\"drain\"}").is_err());
    assert!(Response::decode("{\"v\":1,\"type\":\"cancelled\",\"id\":1,\"found\":true}").is_err());
}

/// Runs `f` on a new thread with the default stack size and returns its
/// result, failing the test if it takes longer than `limit` (the thread
/// is then left behind) and passing on its panic if it panics.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            worker.join().expect("the worker returns after sending");
            value
        }
        Err(RecvTimeoutError::Timeout) => panic!("decoding took longer than {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the worker sends before it returns"),
        },
    }
}

#[test]
fn deeply_nested_frames_are_rejected_without_exhausting_the_stack() {
    let rejected = within(Duration::from_secs(60), || {
        let brackets = "[".repeat(1 << 20);
        let objects = format!("{}0{}", "{\"a\":".repeat(1 << 16), "}".repeat(1 << 16));
        [
            Request::decode(&brackets).is_err(),
            Response::decode(&brackets).is_err(),
            Request::decode(&objects).is_err(),
            Response::decode(&objects).is_err(),
        ]
    });
    assert_eq!(rejected, [true; 4]);
}

#[test]
fn a_string_near_the_frame_limit_decodes_in_linear_time() {
    let chunk = "tcm-é→\\\"\n";
    let message = chunk.repeat((MAX_FRAME_LEN - 4096) / (chunk.len() + 3));
    let response = Response::Error { message };
    let mut stream = Vec::new();
    write_frame(&mut stream, &response.encode()).unwrap();
    assert!(stream.len() > MAX_FRAME_LEN * 3 / 4);
    let decoded = within(Duration::from_secs(10), move || {
        let payload = read_frame(&mut Cursor::new(stream)).unwrap().unwrap();
        Response::decode(&payload)
    });
    assert_eq!(decoded.unwrap(), response);
}

/// Characters that make random text look like JSON often enough for the
/// parser to get past its first byte.
const JSONISH: &[u8] = b"{}[]\":,0123456789 \\untrfalse\n";

fn jsonish(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..JSONISH.len(), len)
        .prop_map(|idx| idx.into_iter().map(|i| JSONISH[i] as char).collect())
}

/// Any string: printable text, control characters, quotes, backslashes
/// and multi-byte characters.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..12).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c % 4 {
                0 => char::from_u32(c % 0x20).unwrap_or('?'),
                1 => ['"', '\\', '/', 'u'][(c / 4 % 4) as usize],
                2 => char::from_u32(c / 4 % 0x11_0000).unwrap_or('\u{fffd}'),
                _ => (b'a' + (c / 4 % 26) as u8) as char,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, framed or not, never panic a reader or decoder.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        noise in jsonish(0..96),
    ) {
        for payload in [String::from_utf8_lossy(&bytes).into_owned(), noise] {
            let _ = Request::decode(&payload);
            let _ = Response::decode(&payload);
            let framed = format!("tcmp1 {}\n{payload}\n", payload.len());
            let read = read_frame(&mut Cursor::new(framed.as_bytes())).unwrap();
            prop_assert_eq!(read, Some(payload));
        }
        let _ = read_frame(&mut Cursor::new(&bytes));
    }

    /// Every proper prefix of a golden frame stream is a clean end of
    /// stream, a whole frame, or an error; every proper prefix of a
    /// payload is refused.
    #[test]
    fn truncations_are_refused(cut in 0..GOLDEN_FRAMES.len()) {
        let mut r = Cursor::new(&GOLDEN_FRAMES.as_bytes()[..cut]);
        while let Ok(Some(payload)) = read_frame(&mut r) {
            prop_assert!(Response::decode(&payload).is_ok() || Request::decode(&payload).is_ok());
        }
        for payload in GOLDEN_FRAMES.lines().filter(|l| l.starts_with('{')) {
            if let Some(prefix) = payload.get(..cut.min(payload.len() - 1)) {
                prop_assert!(Request::decode(prefix).is_err());
                prop_assert!(Response::decode(prefix).is_err());
            }
        }
    }

    /// A single flipped bit anywhere in a frame stream is an error or a
    /// decodable message, never a panic; whatever decodes re-encodes to
    /// a message that decodes to itself.
    #[test]
    fn bit_flips_never_panic(bit in 0..GOLDEN_FRAMES.len() * 8) {
        let mut bytes = GOLDEN_FRAMES.as_bytes().to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let mut r = Cursor::new(&bytes);
        while let Ok(Some(payload)) = read_frame(&mut r) {
            if let Ok(request) = Request::decode(&payload) {
                prop_assert_eq!(Request::decode(&request.encode()), Ok(request));
            }
            if let Ok(response) = Response::decode(&payload) {
                prop_assert_eq!(Response::decode(&response.encode()), Ok(response));
            }
        }
    }

    /// Valid encodings of arbitrary strings and bit patterns round-trip
    /// exactly, through a frame and back.
    #[test]
    fn valid_messages_round_trip(
        (policy, workload, detail) in (text(), text(), text()),
        (ws_bits, hs_bits) in (any::<u64>(), any::<u64>()),
    ) {
        let messages = [
            cell_result(policy.clone(), workload, ws_bits, hs_bits),
            Response::Error { message: detail },
            Response::Event(Event::Telemetry {
                job: ws_bits,
                counters: vec![(policy.clone(), hs_bits)],
                gauge_bits: vec![(policy, ws_bits)],
            }),
        ];
        for message in messages {
            let mut stream = Vec::new();
            write_frame(&mut stream, &message.encode()).unwrap();
            let payload = read_frame(&mut Cursor::new(stream)).unwrap().unwrap();
            prop_assert_eq!(Response::decode(&payload), Ok(message));
        }
    }
}
