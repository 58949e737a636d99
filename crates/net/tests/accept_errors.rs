//! A failed `accept` must not stop the reactor.
//!
//! The test fills the process's descriptor table until `accept` fails
//! with `EMFILE`, so it lives in a test binary of its own. It first
//! re-runs itself under `ulimit -n 256`: the table it fills stays a few
//! hundred descriptors long, and the lowered limit stays in that child
//! process.

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

use balloc_net::wire::{encode, Frame, FrameDecoder};
use balloc_net::{NetConfig, NetServer, ServerMode};
use balloc_serve::{Request, Staleness};

/// The descriptor limit the scenario runs under.
const FD_LIMIT: u64 = 256;
/// `EMFILE`: the per-process descriptor table is full.
const EMFILE: i32 = 24;

/// This process's soft limit on open files.
fn soft_fd_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let line = limits
        .lines()
        .find(|line| line.starts_with("Max open files"))
        .expect("an open-files line");
    // "Max open files  <soft>  <hard>  files"; "unlimited" is above any limit.
    let soft = line.split_whitespace().nth(3).expect("a soft limit");
    soft.parse().unwrap_or(u64::MAX)
}

/// Sends one `ALLOC` and returns its reply.
fn alloc(stream: &mut TcpStream, decoder: &mut FrameDecoder, req_id: u64) -> Frame {
    let mut bytes = Vec::new();
    encode(&Frame::alloc(req_id, &Request::two_choice()), &mut bytes);
    stream.write_all(&bytes).expect("send ALLOC");
    let mut buf = [0u8; 256];
    loop {
        if let Some(frame) = decoder.next_frame().expect("well-formed reply") {
            return frame;
        }
        match stream.read(&mut buf) {
            Ok(0) => panic!("the server closed the connection before replying to {req_id}"),
            Ok(k) => decoder.extend(&buf[..k]),
            Err(e) => panic!("no reply to {req_id}: {e}"),
        }
    }
}

#[test]
fn emfile_on_accept_keeps_serving() {
    if soft_fd_limit() > FD_LIMIT {
        let exe = std::env::current_exe().expect("test binary path");
        let out = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -n {FD_LIMIT} && exec \"$0\" --exact emfile_on_accept_keeps_serving"
            ))
            .arg(exe)
            .output()
            .expect("run sh");
        assert!(
            out.status.success(),
            "the run under ulimit -n {FD_LIMIT} failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }

    let server = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            n: 16,
            shards: 2,
            staleness: Staleness::Batch { b: 16 },
            seed: 3,
            mode: ServerMode::Inline,
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    let mut client = TcpStream::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut hello = Vec::new();
    encode(&Frame::hello(0), &mut hello);
    client.write_all(&hello).expect("send HELLO");
    let mut decoder = FrameDecoder::new();
    assert!(matches!(
        alloc(&mut client, &mut decoder, 1),
        Frame::RespBin { req_id: 1, .. }
    ));

    // Fill the descriptor table, then free one slot for a second client:
    // the kernel completes its handshake, and the reactor's `accept` has
    // no descriptor left to give it.
    let mut filler = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(file) => filler.push(file),
            Err(e) if e.raw_os_error() == Some(EMFILE) => break,
            Err(e) => panic!("filling the descriptor table: {e}"),
        }
    }
    filler.pop();
    let second = TcpStream::connect(addr);
    assert!(
        second.as_ref().is_ok(),
        "the second client's socket takes the freed slot: {second:?}"
    );
    // Let the reactor take the listener's edge and fail that accept.
    // balloc-lint: allow(L002): the reactor's accept has no observable
    // signal to wait on; the pause decides no placement.
    std::thread::sleep(Duration::from_millis(200));

    // The connected client is still answered…
    assert!(matches!(
        alloc(&mut client, &mut decoder, 2),
        Frame::RespBin { req_id: 2, .. }
    ));
    // …while the table stayed full, so the accept could not succeed.
    assert_eq!(
        File::open("/dev/null").err().and_then(|e| e.raw_os_error()),
        Some(EMFILE),
        "the table is still full"
    );

    drop(filler);
    drop(second);
    drop(client);
    shutdown.shutdown();
    let report = join
        .join()
        .expect("server thread")
        .expect("run returns Ok after a failed accept");
    assert_eq!(report.served, 2);
    assert_eq!(report.accepted, 1);
}
