//! Readiness selection for the reactor pool.
//!
//! Each reactor owns one [`Selector`]: a Linux epoll instance reached
//! through raw `epoll_create1`/`epoll_ctl`/`epoll_wait` declarations (std
//! already links libc on Linux, so this stays dependency-free), woken
//! across threads by an `eventfd`. Idle connections cost zero CPU: a
//! reactor only touches connections the kernel reports ready.
//!
//! The surface is deliberately tiny — register/modify/remove a
//! connection's interest, wait for readiness, and hand out a [`Waker`]
//! other threads (acceptor, workers, push fan-out) use to interrupt a
//! wait.

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// What a connection wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the socket has bytes (or EOF) to read.
    pub read: bool,
    /// Wake when the socket can accept more outbound bytes.
    pub write: bool,
}

impl Interest {
    /// Neither readable nor writable wanted — the connection can be
    /// dropped from the readiness set entirely.
    pub fn is_empty(self) -> bool {
        !self.read && !self.write
    }
}

/// A handle other threads use to interrupt a [`Selector::wait`]: the
/// selector's `eventfd`.
#[derive(Clone)]
pub struct Waker(Arc<File>);

impl Waker {
    /// Interrupt the owning selector's current (or next) wait.
    pub fn wake(&self) {
        let _ = (&*self.0).write(&1u64.to_ne_bytes());
    }
}

/// The token the waker eventfd is registered under (never handed to
/// callers).
const WAKER_TOKEN: u64 = u64::MAX;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// Kernel `struct epoll_event`. On x86 the kernel ABI packs it to 12
/// bytes; other architectures use natural (16-byte) layout — this must
/// match what glibc's wrappers pass through.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

// std links libc on Linux, so these resolve without any new dependency;
// see `man epoll` / `man eventfd` for the contracts.
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

fn last_os_error_checked(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn interest_bits(interest: Interest) -> u32 {
    // EPOLLRDHUP rides with read interest so a peer's half-close wakes
    // the reactor; EPOLLERR/EPOLLHUP are always reported.
    let mut bits = 0;
    if interest.read {
        bits |= EPOLLIN | EPOLLRDHUP;
    }
    if interest.write {
        bits |= EPOLLOUT;
    }
    bits
}

/// A level-triggered epoll instance plus the eventfd other threads write
/// to interrupt a wait.
///
/// Tokens are caller-chosen `u64`s (the reactor uses connection ids); the
/// token `u64::MAX` is reserved for the selector's own waker.
pub struct Selector {
    /// The epoll fd, closed on drop.
    epfd: File,
    /// The waker eventfd (nonblocking; shared with [`Waker`] clones).
    wakefd: Arc<File>,
    /// Reusable event buffer for `epoll_wait`.
    events: Vec<EpollEvent>,
}

impl Selector {
    /// A fresh epoll instance with its waker registered.
    pub fn new() -> io::Result<Selector> {
        // SAFETY: plain fd-returning syscalls; ownership of each fd is
        // immediately taken by a File, which closes it on drop.
        let epfd = unsafe {
            let fd = last_os_error_checked(epoll_create1(EPOLL_CLOEXEC))?;
            File::from_raw_fd(fd)
        };
        // SAFETY: as above, for the eventfd.
        let wakefd = unsafe {
            let fd = last_os_error_checked(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK))?;
            Arc::new(File::from_raw_fd(fd))
        };
        let selector = Selector {
            epfd,
            wakefd,
            events: vec![EpollEvent { events: 0, data: 0 }; 256],
        };
        selector.ctl(
            EPOLL_CTL_ADD,
            selector.wakefd.as_raw_fd(),
            EPOLLIN,
            WAKER_TOKEN,
        )?;
        Ok(selector)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: epfd and fd are live; ev outlives the call.
        last_os_error_checked(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Start watching `stream` under `token` with `interest`.
    pub fn register(
        &mut self,
        stream: &TcpStream,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            stream.as_raw_fd(),
            interest_bits(interest),
            token,
        )
    }

    /// Change the interest of an already-registered stream.
    pub fn reregister(
        &mut self,
        stream: &TcpStream,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            stream.as_raw_fd(),
            interest_bits(interest),
            token,
        )
    }

    /// Stop watching `stream`.
    pub fn deregister(&mut self, stream: &TcpStream) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, stream.as_raw_fd(), 0, 0)
    }

    /// Block up to `timeout` for readiness or a [`Waker`] nudge, appending
    /// the ready tokens to `ready`.
    pub fn wait(&mut self, ready: &mut Vec<u64>, timeout: Duration) {
        let timeout_ms = timeout.as_millis().clamp(1, i32::MAX as u128) as i32;
        // SAFETY: the buffer is live and its capacity is passed as
        // maxevents.
        let n = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                self.events.as_mut_ptr(),
                self.events.len() as i32,
                timeout_ms,
            )
        };
        // EINTR (or any error) reads as "nothing ready": the reactor loops
        // back around and waits again.
        let n = n.max(0) as usize;
        let mut woken = false;
        for ev in &self.events[..n] {
            let token = ev.data;
            if token == WAKER_TOKEN {
                woken = true;
            } else {
                ready.push(token);
            }
        }
        if woken {
            // Drain the eventfd counter so level-triggered readiness clears
            // until the next wake.
            let mut buf = [0u8; 8];
            let _ = (&*self.wakefd).read(&mut buf);
        }
    }

    /// A cloneable cross-thread handle that interrupts [`Selector::wait`].
    pub fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.wakefd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn epoll_reports_readable_sockets_and_waker_nudges() {
        let mut sel = Selector::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        sel.register(
            &accepted,
            7,
            Interest {
                read: true,
                write: false,
            },
        )
        .unwrap();

        // Idle socket: the wait times out with nothing ready.
        let mut ready = Vec::new();
        sel.wait(&mut ready, Duration::from_millis(5));
        assert!(ready.is_empty(), "idle socket reported ready: {ready:?}");

        // Bytes arrive: the token comes back.
        client.write_all(b"ping").unwrap();
        let mut ready = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while ready.is_empty() && Instant::now() < deadline {
            sel.wait(&mut ready, Duration::from_millis(50));
        }
        assert_eq!(ready, vec![7]);

        // Once the bytes are consumed, a waker nudge interrupts a long wait
        // without fabricating tokens.
        let mut buf = [0u8; 4];
        (&accepted).read_exact(&mut buf).unwrap();
        sel.waker().wake();
        let mut ready = Vec::new();
        let started = Instant::now();
        sel.wait(&mut ready, Duration::from_secs(5));
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(ready.is_empty(), "waker fabricated tokens: {ready:?}");

        // Deregistered sockets stop reporting.
        sel.deregister(&accepted).unwrap();
        client.write_all(b"more").unwrap();
        let mut ready = Vec::new();
        sel.wait(&mut ready, Duration::from_millis(20));
        assert!(ready.is_empty(), "deregistered socket still ready");
    }
}
