//! Exercises the raw reactor primitives (epoll poller, eventfd waker)
//! against real sockets. Linux-only; other platforms compile this
//! file to nothing.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use tpn_aio::poll::{interest, Event, Poller};
use tpn_aio::wake::Waker;

fn wait_for(
    poller: &mut Poller,
    pred: impl Fn(&Event) -> bool,
    timeout: Duration,
) -> Option<Event> {
    let deadline = Instant::now() + timeout;
    let mut events = Vec::new();
    loop {
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        poller
            .wait(&mut events, Some(deadline - now))
            .expect("epoll_wait");
        if let Some(event) = events.iter().find(|e| pred(e)) {
            return Some(*event);
        }
    }
}

#[test]
fn readiness_for_accept_read_and_hangup() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let mut poller = Poller::new().unwrap();
    poller.add(listener.as_raw_fd(), 1, interest::READ).unwrap();

    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    wait_for(
        &mut poller,
        |e| e.token == 1 && e.readable,
        Duration::from_secs(5),
    )
    .expect("listener readable after connect");

    let (mut server_side, _) = listener.accept().unwrap();
    server_side.set_nonblocking(true).unwrap();
    poller
        .add(server_side.as_raw_fd(), 2, interest::READ | interest::WRITE)
        .unwrap();

    client.write_all(b"ping").unwrap();
    wait_for(
        &mut poller,
        |e| e.token == 2 && e.readable,
        Duration::from_secs(5),
    )
    .expect("connection readable after client write");
    let mut buf = [0u8; 16];
    assert_eq!(server_side.read(&mut buf).unwrap(), 4);
    assert_eq!(&buf[..4], b"ping");

    drop(client);
    let event = wait_for(
        &mut poller,
        |e| e.token == 2 && e.hangup,
        Duration::from_secs(5),
    )
    .expect("hangup after client close");
    assert!(event.readable, "hangup implies a final zero-length read");
}

#[test]
fn waker_interrupts_a_blocked_wait() {
    let mut poller = Poller::new().unwrap();
    let waker = Waker::new().unwrap();
    poller.add(waker.fd(), 99, interest::READ).unwrap();

    let remote = waker.clone();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        remote.wake();
    });

    let event = wait_for(&mut poller, |e| e.token == 99, Duration::from_secs(5))
        .expect("waker event delivered");
    assert!(event.readable);
    waker.drain();

    // Edge-triggered: once drained, no further event without a new wake.
    let mut events = Vec::new();
    poller
        .wait(&mut events, Some(Duration::from_millis(50)))
        .unwrap();
    assert!(
        events.iter().all(|e| e.token != 99),
        "drained waker must stay quiet"
    );
    handle.join().unwrap();
}

#[test]
fn consecutive_waits_do_not_redeliver_a_batch() {
    let mut poller = Poller::new().unwrap();
    let waker = Waker::new().unwrap();
    poller.add(waker.fd(), 7, interest::READ).unwrap();
    waker.wake();

    // One buffer reused across waits, as an event loop does.
    let mut events = Vec::new();
    let n = poller
        .wait(&mut events, Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(n, 1);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].token, 7);
    waker.drain();

    let n = poller
        .wait(&mut events, Some(Duration::from_millis(50)))
        .unwrap();
    assert_eq!(n, 0);
    assert!(events.is_empty(), "first batch redelivered: {events:?}");
}

#[test]
fn accept_pause_via_delete_and_rearm() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    let mut poller = Poller::new().unwrap();
    poller.add(listener.as_raw_fd(), 1, interest::READ).unwrap();

    // Pause accepting: deregister, connect, observe silence.
    poller.delete(listener.as_raw_fd()).unwrap();
    let _client = TcpStream::connect(addr).unwrap();
    let mut events = Vec::new();
    poller
        .wait(&mut events, Some(Duration::from_millis(100)))
        .unwrap();
    assert!(events.is_empty(), "paused listener must not report");

    // Resume: re-add and the pending connection surfaces immediately
    // (epoll is level-checked at registration time).
    poller.add(listener.as_raw_fd(), 1, interest::READ).unwrap();
    wait_for(
        &mut poller,
        |e| e.token == 1 && e.readable,
        Duration::from_secs(5),
    )
    .expect("re-armed listener reports the backlog");
    assert!(listener.accept().is_ok());
}
