//! The serverless compute tier of Figure 3.
//!
//! Invocation path: front-end servers **authenticate** external requests ①
//! and pass them to the **orchestrator**, which tracks per-worker load ②
//! and picks a host through the **workers' manager** ③. A cold start
//! fetches the function's state (its image) **from FlexLog** and pays
//! runtime initialization ④; warm starts reuse the instance. The user code
//! then runs with a [`FlexLog`] handle for its inputs and state ⑤–⑥.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use flexlog_core::{ColorId, FlexLog, FlexLogCluster, SeqNum};

/// User-provided function code: a native closure standing in for the
/// container image's entry point, plus the image bytes that FlexLog stores
/// as the function's state.
#[derive(Clone)]
pub struct FunctionCode {
    pub name: String,
    pub image: Vec<u8>,
    #[allow(clippy::type_complexity)]
    pub entry: Arc<dyn Fn(&mut InvokeCtx<'_>) -> Result<Vec<u8>, String> + Send + Sync>,
}

/// Context handed to a running function instance.
pub struct InvokeCtx<'a> {
    /// The invocation's input payload.
    pub input: Vec<u8>,
    /// The function's handle to the shared log (state/data plane).
    pub log: &'a mut FlexLog,
}

/// Errors from deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeployError {
    AlreadyDeployed(String),
    Storage(String),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::AlreadyDeployed(n) => write!(f, "function {n} already deployed"),
            DeployError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

/// Errors from invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvocationError {
    /// Front-end rejected the request's api key.
    Unauthorized,
    /// No such function.
    UnknownFunction(String),
    /// The function's image could not be fetched from FlexLog.
    StateFetch(String),
    /// The function body returned an error.
    Runtime(String),
}

impl fmt::Display for InvocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvocationError::Unauthorized => write!(f, "unauthorized"),
            InvocationError::UnknownFunction(n) => write!(f, "unknown function {n}"),
            InvocationError::StateFetch(e) => write!(f, "state fetch failed: {e}"),
            InvocationError::Runtime(e) => write!(f, "function error: {e}"),
        }
    }
}

/// Telemetry of one invocation.
#[derive(Clone, Debug)]
pub struct InvocationRecord {
    pub function: String,
    pub worker: usize,
    pub cold_start: bool,
    /// Time before user code ran (routing + state fetch + runtime init).
    pub startup: Duration,
    /// User-code execution time.
    pub execution: Duration,
}

struct Deployed {
    image_sn: SeqNum,
    code: FunctionCode,
}

struct Worker {
    /// Functions with a warm instance on this worker.
    warm: HashMap<String, FlexLog>,
    active: usize,
    total_served: u64,
}

struct PlatformInner {
    deployed: HashMap<String, Deployed>,
    workers: Vec<Worker>,
    records: Vec<InvocationRecord>,
}

/// See module docs.
pub struct FaasPlatform<'c> {
    cluster: &'c FlexLogCluster,
    /// Color storing function images (durable function state).
    images: ColorId,
    inner: Mutex<PlatformInner>,
    /// Simulated per-byte runtime-initialization cost for cold starts.
    init_ns_per_kb: u64,
}

impl<'c> FaasPlatform<'c> {
    /// Builds the platform over a running cluster with `workers` hosts.
    /// Creates the image color (under the master region).
    pub fn new(cluster: &'c FlexLogCluster, images: ColorId, workers: usize) -> Self {
        cluster
            .add_color(images)
            .expect("image color must be fresh");
        FaasPlatform {
            cluster,
            images,
            inner: Mutex::new(PlatformInner {
                deployed: HashMap::new(),
                workers: (0..workers.max(1))
                    .map(|_| Worker {
                        warm: HashMap::new(),
                        active: 0,
                        total_served: 0,
                    })
                    .collect(),
                records: Vec::new(),
            }),
            init_ns_per_kb: 20_000, // 20 µs per KiB of image
        }
    }

    /// Deploys a function: its image is appended to the image color (the
    /// function state FlexLog persists) and its entry point registered.
    pub fn deploy(&self, code: FunctionCode) -> Result<SeqNum, DeployError> {
        {
            let inner = self.inner.lock();
            if inner.deployed.contains_key(&code.name) {
                return Err(DeployError::AlreadyDeployed(code.name));
            }
        }
        let mut handle = self.cluster.handle();
        let image_sn = handle
            .append(&code.image, self.images)
            .map_err(|e| DeployError::Storage(e.to_string()))?;
        self.inner.lock().deployed.insert(
            code.name.clone(),
            Deployed { image_sn, code },
        );
        Ok(image_sn)
    }

    /// External invocation: authenticate ①, route ②③, cold-start if needed
    /// ④, run ⑤⑥.
    pub fn invoke(
        &self,
        api_key: &str,
        function: &str,
        input: &[u8],
    ) -> Result<Vec<u8>, InvocationError> {
        // ① Front-end authentication.
        if !api_key.starts_with("key-") {
            return Err(InvocationError::Unauthorized);
        }
        let started = Instant::now();

        // ② Orchestrator: least-loaded worker wins.
        let (worker_idx, image_sn, code) = {
            let inner = self.inner.lock();
            let dep = inner
                .deployed
                .get(function)
                .ok_or_else(|| InvocationError::UnknownFunction(function.to_string()))?;
            let worker_idx = inner
                .workers
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.active)
                .map(|(i, _)| i)
                .expect("at least one worker");
            (worker_idx, dep.image_sn, dep.code.clone())
        };
        self.inner.lock().workers[worker_idx].active += 1;

        // ③/④ Workers' manager: cold start fetches the image from FlexLog
        // and initializes the runtime; warm start reuses the instance.
        let mut warm_handle = {
            let mut inner = self.inner.lock();
            inner.workers[worker_idx].warm.remove(function)
        };
        let cold = warm_handle.is_none();
        if cold {
            let mut fetcher = self.cluster.handle();
            let image = fetcher
                .read(image_sn, self.images)
                .map_err(|e| InvocationError::StateFetch(e.to_string()))?
                .ok_or_else(|| InvocationError::StateFetch("image missing".into()))?;
            // Language runtime initialization, proportional to image size.
            let init = Duration::from_nanos(
                self.init_ns_per_kb * (image.len() as u64 / 1024 + 1),
            );
            std::thread::sleep(init);
            warm_handle = Some(self.cluster.handle());
        }
        let mut handle = warm_handle.expect("created above");
        let startup = started.elapsed();

        // ⑤/⑥ Run user code.
        let exec_started = Instant::now();
        let mut ctx = InvokeCtx {
            input: input.to_vec(),
            log: &mut handle,
        };
        let result = (code.entry)(&mut ctx);
        let execution = exec_started.elapsed();

        let mut inner = self.inner.lock();
        inner.workers[worker_idx].active -= 1;
        inner.workers[worker_idx].total_served += 1;
        inner.workers[worker_idx]
            .warm
            .insert(function.to_string(), handle);
        inner.records.push(InvocationRecord {
            function: function.to_string(),
            worker: worker_idx,
            cold_start: cold,
            startup,
            execution,
        });
        result.map_err(InvocationError::Runtime)
    }

    /// All invocation records so far.
    pub fn records(&self) -> Vec<InvocationRecord> {
        self.inner.lock().records.clone()
    }

    /// Invocations served per worker (load-balance observability).
    pub fn worker_loads(&self) -> Vec<u64> {
        self.inner.lock().workers.iter().map(|w| w.total_served).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexlog_core::ClusterSpec;

    fn echo_code(name: &str) -> FunctionCode {
        FunctionCode {
            name: name.to_string(),
            image: vec![0xAB; 2048],
            entry: Arc::new(|ctx| {
                let mut out = b"echo:".to_vec();
                out.extend_from_slice(&ctx.input);
                Ok(out)
            }),
        }
    }

    #[test]
    fn deploy_and_invoke() {
        let cluster = FlexLogCluster::start(ClusterSpec::single_shard());
        let platform = FaasPlatform::new(&cluster, ColorId(40), 2);
        platform.deploy(echo_code("echo")).unwrap();
        let out = platform.invoke("key-1", "echo", b"hi").unwrap();
        assert_eq!(out, b"echo:hi");
        cluster.shutdown();
    }

    #[test]
    fn bad_api_key_rejected() {
        let cluster = FlexLogCluster::start(ClusterSpec::single_shard());
        let platform = FaasPlatform::new(&cluster, ColorId(40), 1);
        platform.deploy(echo_code("echo")).unwrap();
        assert_eq!(
            platform.invoke("nope", "echo", b""),
            Err(InvocationError::Unauthorized)
        );
        cluster.shutdown();
    }

    #[test]
    fn unknown_function_rejected() {
        let cluster = FlexLogCluster::start(ClusterSpec::single_shard());
        let platform = FaasPlatform::new(&cluster, ColorId(40), 1);
        assert!(matches!(
            platform.invoke("key-1", "ghost", b""),
            Err(InvocationError::UnknownFunction(_))
        ));
        cluster.shutdown();
    }

    #[test]
    fn duplicate_deploy_rejected() {
        let cluster = FlexLogCluster::start(ClusterSpec::single_shard());
        let platform = FaasPlatform::new(&cluster, ColorId(40), 1);
        platform.deploy(echo_code("f")).unwrap();
        assert!(matches!(
            platform.deploy(echo_code("f")),
            Err(DeployError::AlreadyDeployed(_))
        ));
        cluster.shutdown();
    }

    #[test]
    fn second_invocation_is_warm() {
        let cluster = FlexLogCluster::start(ClusterSpec::single_shard());
        let platform = FaasPlatform::new(&cluster, ColorId(40), 1);
        platform.deploy(echo_code("f")).unwrap();
        platform.invoke("key-1", "f", b"1").unwrap();
        platform.invoke("key-1", "f", b"2").unwrap();
        let records = platform.records();
        assert!(records[0].cold_start);
        assert!(!records[1].cold_start, "warm instance must be reused");
        assert!(
            records[1].startup < records[0].startup,
            "warm start must skip image fetch + init"
        );
        cluster.shutdown();
    }

    #[test]
    fn functions_share_state_through_the_log() {
        let cluster = FlexLogCluster::start(ClusterSpec::single_shard());
        cluster.add_color(ColorId(41)).unwrap();
        let platform = FaasPlatform::new(&cluster, ColorId(40), 2);
        platform
            .deploy(FunctionCode {
                name: "producer".into(),
                image: vec![1; 512],
                entry: Arc::new(|ctx| {
                    let sn = ctx
                        .log
                        .append(&ctx.input, ColorId(41))
                        .map_err(|e| e.to_string())?;
                    Ok(sn.0.to_le_bytes().to_vec())
                }),
            })
            .unwrap();
        platform
            .deploy(FunctionCode {
                name: "consumer".into(),
                image: vec![2; 512],
                entry: Arc::new(|ctx| {
                    let sn = flexlog_core::SeqNum(u64::from_le_bytes(
                        ctx.input[..8].try_into().map_err(|_| "bad input")?,
                    ));
                    ctx.log
                        .read(sn, ColorId(41))
                        .map_err(|e| e.to_string())?
                        .map(|p| p.to_vec())
                        .ok_or_else(|| "not found".to_string())
                }),
            })
            .unwrap();

        let sn_bytes = platform.invoke("key-1", "producer", b"shared!").unwrap();
        let read_back = platform.invoke("key-1", "consumer", &sn_bytes).unwrap();
        assert_eq!(read_back, b"shared!");
        cluster.shutdown();
    }

    #[test]
    fn load_spreads_across_workers() {
        let cluster = FlexLogCluster::start(ClusterSpec::single_shard());
        let platform = FaasPlatform::new(&cluster, ColorId(40), 3);
        platform.deploy(echo_code("f")).unwrap();
        for i in 0..9 {
            platform.invoke("key-1", "f", &[i]).unwrap();
        }
        let loads = platform.worker_loads();
        assert_eq!(loads.iter().sum::<u64>(), 9);
        cluster.shutdown();
    }
}
