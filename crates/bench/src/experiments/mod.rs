//! One module per paper table/figure. Every experiment exposes
//! `run(quick: bool) -> Vec<Table>`; `quick` shrinks sample counts so the
//! full suite stays tractable in CI (subcommands default to full runs).

pub mod ablation;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5to7;
pub mod fig8;
pub mod fig9;
pub mod table1;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use flexlog_ordering::{request_order, OrderMsg, OrderingService, RoleId, TreeSpec};
use flexlog_simnet::{NetConfig, Network, NodeId};
use flexlog_types::{ColorId, FunctionId, Token};

use crate::Series;

/// The color every ordering-layer experiment orders.
const COLOR: ColorId = ColorId(1);
const ORDER_TIMEOUT: Duration = Duration::from_secs(2);

/// Mean latency of `samples` one-record order requests from a single
/// client, entering the sequencer tree `spec` at `role` over datacenter
/// links.
fn order_latency(spec: &TreeSpec, role: RoleId, samples: usize) -> Duration {
    let net: Network<OrderMsg> = Network::new(NetConfig::datacenter());
    let h = OrderingService::start(&net, spec, &Default::default());
    let ep = net.register(NodeId::named(NodeId::CLASS_CLIENT, 1));
    let mut lat = Series::new();
    for i in 0..samples as u32 {
        let token = Token::new(FunctionId(1), i + 1);
        let start = Instant::now();
        let sns = request_order(&ep, &h.directory, role, COLOR, token, 1, ORDER_TIMEOUT);
        sns.expect("order request");
        lat.push(start.elapsed().as_secs_f64());
    }
    h.shutdown(&net);
    Duration::from_secs_f64(lat.mean())
}

/// Order requests per second completed by `clients` closed-loop clients
/// entering the tree `spec` at `role` for `duration`, same links.
fn order_throughput(spec: &TreeSpec, role: RoleId, clients: usize, duration: Duration) -> f64 {
    let net: Network<OrderMsg> = Network::new(NetConfig::datacenter());
    let h = OrderingService::start(&net, spec, &Default::default());
    let stop = AtomicBool::new(false);
    let (done, elapsed) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients as u32)
            .map(|c| {
                let ep = net.register(NodeId::named(NodeId::CLASS_CLIENT, u64::from(c) + 1));
                let (dir, stop) = (&h.directory, &stop);
                s.spawn(move || {
                    let (mut done, mut i) = (0u64, 0u32);
                    while !stop.load(Ordering::Relaxed) {
                        i += 1;
                        let token = Token::new(FunctionId(c + 1), i);
                        let sns = request_order(&ep, dir, role, COLOR, token, 1, ORDER_TIMEOUT);
                        done += u64::from(sns.is_ok());
                    }
                    done
                })
            })
            .collect();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let done: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        (done, start.elapsed())
    });
    h.shutdown(&net);
    done as f64 / elapsed.as_secs_f64()
}
