//! End-to-end `parspeed serve`: spawn the real binary, talk wire-v2
//! JSONL over a real socket, close stdin, and watch it drain.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Command, Stdio};

#[test]
fn serve_round_trips_drains_and_reports_stats() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_parspeed"))
        .args(["serve", "--addr", "127.0.0.1:0", "--window-us", "300", "--stats"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn parspeed serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read announce line");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line {line:?}"))
        .parse()
        .expect("bound address");
    line.clear();
    stdout.read_line(&mut line).expect("read info line");

    // One connection exercising the whole wire: v2, garbage, v1, stats.
    let mut stream = TcpStream::connect(addr).expect("connect");
    for request in [
        r#"{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt","shape":"square","procs":64}"#,
        "definitely not json",
        r#"{"op":"minsize","variant":"sync-square","e":6.0,"k":1.0,"procs":14}"#,
        r#"{"op":"stats"}"#,
    ] {
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.shutdown(Shutdown::Write).unwrap();
    let replies: Vec<String> =
        BufReader::new(stream).lines().map(|l| l.expect("reply line")).collect();
    assert_eq!(replies.len(), 4, "{replies:?}");
    assert!(replies[0].contains("\"version\":2") && replies[0].contains("\"processors\":14"));
    assert!(replies[1].contains("\"ok\":false") && replies[1].contains("\"line\":2"));
    assert!(replies[2].contains("\"op\":\"minsize\"") && !replies[2].contains("\"version\""));
    assert!(replies[3].contains("\"op\":\"stats\"") && replies[3].contains("\"v1_lines\":1"));

    // Closing stdin asks the server to drain and exit.
    drop(child.stdin.take());
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read final output");
    assert!(rest.contains("drained;"), "{rest}");
    assert!(rest.contains("submitted"), "--stats must print the snapshot: {rest}");
    let status = child.wait().expect("child exit");
    assert!(status.success(), "{status:?}");
}

/// `serve` and `route` take no `--threads`: each batcher worker evaluates
/// its batch's misses on its own thread. An invocation that passes the
/// flag fails fast with the unknown-flag error, before anything listens.
#[test]
fn serving_commands_reject_the_removed_threads_flag() {
    for command in ["serve", "route"] {
        let out = Command::new(env!("CARGO_BIN_EXE_parspeed"))
            .args([command, "--addr", "127.0.0.1:0", "--threads", "2"])
            .stdin(Stdio::null())
            .output()
            .expect("spawn parspeed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(stderr.contains("unknown flag `--threads`"), "{command}: {stderr}");
        assert!(out.stdout.is_empty(), "{command} must not start serving");
    }
}
