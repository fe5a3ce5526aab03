//! The TCP server: an event-loop IO core over a fixed worker pool.
//!
//! All socket IO — accept, request parsing, response writing, chunked
//! batch streaming — happens on one nonblocking event-loop thread (see
//! the [`crate::evloop`] module docs); parsed requests are pushed onto a
//! bounded job queue consumed by `threads` workers. Each worker answers
//! every job through one call, [`Service::serve`], which streams
//! `/v1/batch` and `/v1/sweep` frames as chunked NDJSON and writes every
//! other response buffered. When the queue is full the loop answers
//! `503 Service Unavailable` with a `Retry-After` header itself, so
//! overload sheds load in microseconds instead of stacking latency. Per-connection read
//! and write deadlines bound hostile or broken clients without a thread
//! held hostage per connection.
//!
//! With [`ServerConfig::replicas`] > 1 the process becomes a shard
//! router instead: it forks that many single-replica child servers and
//! proxies requests to them by a consistent hash of the canonical
//! program (see the [`crate::router`] module docs).

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bayonet_exact::ComputePool;
use crossbeam::channel;

use crate::evloop::{loop_shared, EventLoop, Job, LoopConfig, LoopShared};
use crate::metrics::Metrics;
use crate::persist::{PersistConfig, DEFAULT_CACHE_MAX_BYTES};
use crate::router::{spawn_replicas, Replica, RouterCore};
use crate::service::{Service, ServiceOptions, DEFAULT_CACHE_ENTRIES};

/// Default cap on concurrently open client connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 16 * 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8645`. Port 0 picks an ephemeral port
    /// (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing inference jobs.
    pub threads: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Bounded queue capacity; requests beyond this get `503`.
    pub queue_capacity: usize,
    /// Per-connection IO deadline: a request must fully arrive within this
    /// long of accept, and a pending response must keep making progress at
    /// this granularity. Not an inference timeout — that is the
    /// per-request `timeout_ms`.
    pub io_timeout: Duration,
    /// Directory for the persistent result cache; `None` (the default)
    /// keeps the cache memory-only. With `replicas > 1` each replica uses
    /// the `shard-<i>` subdirectory.
    pub cache_dir: Option<PathBuf>,
    /// Segment-file size that triggers compaction when persistence is
    /// enabled.
    pub cache_max_bytes: u64,
    /// Number of replica processes. `1` (the default) serves in-process;
    /// more turns this process into a consistent-hash shard router in
    /// front of that many forked single-replica servers.
    pub replicas: usize,
    /// Cap on concurrently open client connections; connections beyond it
    /// are answered `503` immediately.
    pub max_connections: usize,
    /// Binary to execute for replica processes. `None` re-executes the
    /// current binary, which must call [`crate::replica_entry`] first
    /// thing in `main`. Tests point this at a dedicated server binary
    /// because their own `main` belongs to the test harness.
    pub replica_exe: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8645".to_string(),
            threads: 4,
            cache_entries: DEFAULT_CACHE_ENTRIES,
            queue_capacity: 64,
            io_timeout: Duration::from_secs(30),
            cache_dir: None,
            cache_max_bytes: DEFAULT_CACHE_MAX_BYTES,
            replicas: 1,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            replica_exe: None,
        }
    }
}

/// A handle to a running server (or shard router).
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    shared: Arc<LoopShared>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    replicas: Vec<Replica>,
}

impl ServerHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry. For a router this is the router's
    /// own registry (routing counters, connection gauges); each replica
    /// exports its own via its `/metrics`.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Signals shutdown and joins all threads. In-flight requests get a
    /// grace period to finish; idle connections are dropped. A router
    /// also stops its replica fleet.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        for replica in self.replicas.drain(..) {
            replica.stop();
        }
    }

    /// Blocks until the event loop exits (i.e. forever, absent
    /// [`ServerHandle::shutdown`] from another thread). Replica processes
    /// outlive the call but not the router process: their stdin watchdogs
    /// fire when it exits.
    pub fn join(mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Starts the server: binds, spawns the worker pool (or replica fleet)
/// and the event loop.
///
/// # Errors
///
/// Fails if the address cannot be bound, a replica fails to start, or if
/// `cache_dir` is set and the persistent cache segment cannot be created
/// or opened (corrupt segment *contents* are skipped and counted, never
/// fatal).
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    // Best effort: a 10k-connection server wants headroom over the
    // default soft fd limit. Failure is fine — the connection cap sheds.
    let _ = bayonet_net::raise_nofile_limit();
    if config.replicas > 1 {
        start_router(config)
    } else {
        start_serve(config)
    }
}

/// Single-replica mode: event loop + worker pool + [`Service`].
fn start_serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // One shared compute pool, sized to the worker count: a large request
    // can borrow threads that would otherwise sit idle in the HTTP pool,
    // and under full load everyone degrades to single-threaded.
    let threads = config.threads.max(1);
    let service = Arc::new(Service::with_options(ServiceOptions {
        cache_entries: config.cache_entries,
        pool: Some(ComputePool::new(threads)),
        persist: config.cache_dir.as_ref().map(|dir| PersistConfig {
            dir: dir.clone(),
            max_bytes: config.cache_max_bytes,
        }),
    })?);
    let metrics = service.metrics();
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = channel::bounded::<Job>(config.queue_capacity);

    let mut workers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let rx = rx.clone();
        let service = Arc::clone(&service);
        workers.push(std::thread::spawn(move || {
            while let Ok(mut job) = rx.recv() {
                service.metrics().queue_depth_add(-1);
                // Batch and sweep frames stream back through the loop as
                // chunked NDJSON; a closed connection fails the writes,
                // which is what cancels a batch's remaining items.
                let _ = service.serve(&job.request, &mut job.out);
                job.out.finish();
            }
        }));
    }

    let (shared, waker_rx) = loop_shared()?;
    let event_loop = EventLoop::new(
        LoopConfig {
            listener,
            metrics: Arc::clone(&metrics),
            io_timeout: config.io_timeout,
            max_connections: config.max_connections,
            jobs: Some(tx),
            router: None,
            shutdown: Arc::clone(&shutdown),
        },
        Arc::clone(&shared),
        waker_rx,
    )?;
    let loop_thread = std::thread::spawn(move || event_loop.run());
    // The loop owns the job sender; when it exits the channel disconnects
    // and the workers drain out.

    Ok(ServerHandle {
        addr,
        metrics,
        shutdown,
        shared,
        event_loop: Some(loop_thread),
        workers,
        replicas: Vec::new(),
    })
}

/// Router mode: replica fleet + proxying event loop, no local inference.
fn start_router(config: ServerConfig) -> io::Result<ServerHandle> {
    let replicas = spawn_replicas(&config)?;
    let listener = match TcpListener::bind(&config.addr) {
        Ok(listener) => listener,
        Err(e) => {
            for replica in replicas {
                replica.stop();
            }
            return Err(e);
        }
    };
    let addr = listener.local_addr()?;
    let metrics = Arc::new(Metrics::new());
    let shutdown = Arc::new(AtomicBool::new(false));
    let router = RouterCore::new(replicas.iter().map(|r| r.addr).collect());

    let (shared, waker_rx) = loop_shared()?;
    let event_loop = EventLoop::new(
        LoopConfig {
            listener,
            metrics: Arc::clone(&metrics),
            io_timeout: config.io_timeout,
            max_connections: config.max_connections,
            jobs: None,
            router: Some(router),
            shutdown: Arc::clone(&shutdown),
        },
        Arc::clone(&shared),
        waker_rx,
    )?;
    let loop_thread = std::thread::spawn(move || event_loop.run());

    Ok(ServerHandle {
        addr,
        metrics,
        shutdown,
        shared,
        event_loop: Some(loop_thread),
        workers: Vec::new(),
        replicas,
    })
}
