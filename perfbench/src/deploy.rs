//! Standing up the system under test the way an operator would: crawl
//! and build the primary's engine, put it behind the HTTP front end,
//! start the replication hub, bootstrap one replica and serve it over
//! HTTP too. Every knob is the default (`ServeConfig`, `NetConfig`,
//! `ReplicaConfig`); only the shard count is set, to [`SHARDS`], so the
//! `DASH_SHARDS` environment variable cannot change what is measured.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dash_core::crawl::{self, CrawlAlgorithm};
use dash_core::{DashConfig, Fragment, IngestSource, ShardedEngine};
use dash_net::{NetConfig, NetServer, Replica, ReplicaConfig, ReplicationHub};
use dash_serve::{DashServer, ServeConfig};
use dash_webapp::WebApplication;

use crate::inputs::{application, Inputs, Result};
use crate::spec::{ReadTarget, SHARDS};

/// How long a replica may take to bootstrap before the run fails.
const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(60);

/// A running primary + replica pair. Fields drop in declaration order:
/// front ends first, the primary's server last.
pub struct Deployment {
    pub replica_net: NetServer,
    pub replica: Arc<Replica>,
    pub hub: ReplicationHub,
    pub net: NetServer,
    pub primary: Arc<DashServer>,
    pub app: WebApplication,
}

/// Where the time of one set-up went.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total: Duration,
    /// Crawl and build timed apart (only on a split set-up).
    pub crawl: Option<Duration>,
    pub build: Option<Duration>,
    pub bootstrap: Duration,
}

impl Deployment {
    /// Sets up a deployment from generated inputs. With `split`, the
    /// crawl and the engine build run as two timed calls instead of one
    /// `DashServer::build`, and the crawled fragments are returned.
    pub fn start(
        inputs: &Inputs,
        split: bool,
    ) -> Result<(Deployment, SetupTimes, Option<Vec<Fragment>>)> {
        let begin = Instant::now();
        let app = application(&inputs.db)?;
        let serve = ServeConfig::default().shards(SHARDS);
        let (primary, crawl, build, fragments) = if split {
            let at = Instant::now();
            let out = crawl::run(
                &app,
                &inputs.db,
                &DashConfig::default().cluster,
                CrawlAlgorithm::default(),
            )
            .map_err(|e| format!("crawl: {e}"))?;
            let crawl = at.elapsed();
            let at = Instant::now();
            let engine = ShardedEngine::builder(app.clone())
                .shards(serve.shards)
                .stats(out.stats)
                .source(IngestSource::Fragments(&out.fragments))
                .build()
                .map_err(|e| format!("build: {e}"))?;
            let build = at.elapsed();
            (
                DashServer::from_engine(engine, serve),
                Some(crawl),
                Some(build),
                Some(out.fragments),
            )
        } else {
            let server = DashServer::build(&app, &inputs.db, &DashConfig::default(), serve)
                .map_err(|e| format!("build: {e}"))?;
            (server, None, None, None)
        };
        let primary = Arc::new(primary);
        let net = NetServer::serve_primary(
            Arc::clone(&primary),
            inputs.db.clone(),
            bind()?,
            NetConfig::default(),
        )
        .map_err(|e| format!("primary front end: {e}"))?;
        let hub = ReplicationHub::start(Arc::clone(&primary), bind()?)
            .map_err(|e| format!("replication hub: {e}"))?;
        let (replica, bootstrap) = connect_replica(hub.addr(), &app)?;
        let replica = Arc::new(replica);
        let replica_net =
            NetServer::serve_replica(Arc::clone(&replica), bind()?, NetConfig::default())
                .map_err(|e| format!("replica front end: {e}"))?;
        let times = SetupTimes {
            total: begin.elapsed(),
            crawl,
            build,
            bootstrap,
        };
        Ok((
            Deployment {
                replica_net,
                replica,
                hub,
                net,
                primary,
                app,
            },
            times,
            fragments,
        ))
    }

    /// The HTTP address searches go to.
    pub fn read_addr(&self, target: ReadTarget) -> SocketAddr {
        match target {
            ReadTarget::Primary => self.net.addr(),
            ReadTarget::Replica => self.replica_net.addr(),
        }
    }

    /// The serving stack behind the read address.
    pub fn read_server(&self, target: ReadTarget) -> Result<Arc<DashServer>> {
        match target {
            ReadTarget::Primary => Ok(Arc::clone(&self.primary)),
            ReadTarget::Replica => self
                .replica
                .server()
                .ok_or_else(|| "replica lost its server".to_string()),
        }
    }

    pub fn read_front(&self, target: ReadTarget) -> &NetServer {
        match target {
            ReadTarget::Primary => &self.net,
            ReadTarget::Replica => &self.replica_net,
        }
    }
}

/// Connects a replica to `hub` and waits until it serves, polling every
/// 200 µs; returns it with its bootstrap time.
pub fn connect_replica(hub: SocketAddr, app: &WebApplication) -> Result<(Replica, Duration)> {
    let begin = Instant::now();
    let replica = Replica::connect(hub, app.clone(), ReplicaConfig::default());
    while replica.server().is_none() {
        if begin.elapsed() > BOOTSTRAP_TIMEOUT {
            return Err("replica did not bootstrap".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok((replica, begin.elapsed()))
}

pub fn bind() -> Result<TcpListener> {
    TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))
}
