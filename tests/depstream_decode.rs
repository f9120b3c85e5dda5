//! The nine recorded MachSuite streams survive the on-disk format: text →
//! `DepStream` → text is the identity, on streams three orders of magnitude
//! larger than the hand-built fixture of `tests/replay_format.rs`.

use machsuite::Bench;
use salam::standalone::{try_run_kernel_profiled, StandaloneConfig};
use salam_obs::DepStream;

#[test]
fn recorded_streams_round_trip_through_the_text_decoder() {
    for bench in Bench::ALL {
        let kernel = bench.build_standard();
        let (_, trace) = try_run_kernel_profiled(&kernel, &StandaloneConfig::default())
            .expect("baseline records");
        let text = trace.to_json();
        let back = DepStream::from_json(&text).expect("decodes");
        assert_eq!(back, trace, "{}", kernel.name);
        assert_eq!(back.to_json(), text, "{}", kernel.name);
    }
}
