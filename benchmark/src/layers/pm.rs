//! flexlog-pm: the transactional pool every commit goes through, and the
//! SSD below it.

use std::sync::Arc;

use flexlog_pm::{
    virtual_time, DeviceClock, LatencyModel, PmDevice, PmDeviceConfig, PmPool, SsdDevice,
};

use super::{median_call_us, Drivers};

const RECORD: [u8; 256] = [0xA5; 256];
const SINGLE_TXS: usize = 4_000;
const BATCH: usize = 64;
const BATCH_TXS: usize = 100;

fn pool() -> PmPool {
    PmPool::create(Arc::new(PmDevice::new(PmDeviceConfig {
        capacity: 16 << 20,
        latency: LatencyModel::pm_bypass(),
        clock: DeviceClock::virtual_clock(),
    })))
}

pub fn run(_seed: u64, out: &mut Drivers) {
    let p = pool();
    out.put(
        "pm.tx_commit_1_us",
        median_call_us(SINGLE_TXS, |i| p.put(i as u128, &RECORD).expect("put")),
    );
    let p = pool();
    let per_tx = median_call_us(BATCH_TXS, |t| {
        let mut tx = p.begin();
        for i in 0..BATCH {
            tx.put((t * BATCH + i) as u128, &RECORD);
        }
        tx.commit().expect("commit");
    });
    out.put("pm.tx_commit_64_us_per_rec", per_tx / BATCH as f64);

    out.put_modelled("pm.tx_commit_1_modelled_ns", || {
        let p = pool();
        virtual_time::take();
        for i in 0..BATCH {
            p.put(i as u128, &RECORD).expect("put");
        }
        virtual_time::take() as f64 / BATCH as f64
    });
    // The spill path's unit of work: a batch of buffered block writes and
    // one fsync; then each block read back cold.
    let ssd = || {
        let ssd = SsdDevice::new(DeviceClock::virtual_clock());
        virtual_time::take();
        for i in 0..BATCH {
            ssd.write_block(i as u128, &RECORD);
        }
        ssd.fsync();
        (ssd, virtual_time::take() as f64 / BATCH as f64)
    };
    out.put_modelled("pm.ssd_write_modelled_ns", || ssd().1);
    out.put_modelled("pm.ssd_read_modelled_ns", || {
        let (ssd, _) = ssd();
        for i in 0..BATCH {
            ssd.read_block(i as u128).expect("block written above");
        }
        virtual_time::take() as f64 / BATCH as f64
    });
}
