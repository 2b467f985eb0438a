//! A listener from [`parspeed_netio::listen`] takes a burst of connects
//! far beyond std's default backlog of 128 while nothing accepts. With a
//! 128-deep queue, connect 130 waits for a SYN retransmit (about a
//! second) and times out here.

use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Connects in the burst: well past the 129 a 128-deep queue holds.
const BURST: usize = 200;

/// How long one connect may take. A queued connect completes in well
/// under a millisecond on loopback; an overflowed one waits for the
/// first SYN retransmit.
const CONNECT_BOUND: Duration = Duration::from_millis(500);

#[test]
fn a_burst_past_128_connects_completes_without_an_accept() {
    let listener = parspeed_netio::listen("127.0.0.1:0").expect("listen");
    let addr = listener.local_addr().expect("local addr");
    let mut held = Vec::with_capacity(BURST);
    for i in 1..=BURST {
        let start = Instant::now();
        match TcpStream::connect_timeout(&addr, CONNECT_BOUND) {
            Ok(stream) => held.push(stream),
            Err(e) => panic!(
                "connect {i} of {BURST} failed after {:?} ({e}): the accept backlog holds \
                 fewer than {i} connections",
                start.elapsed()
            ),
        }
    }
    assert_eq!(held.len(), BURST);
}
