use machsuite::Bench;
use salam::standalone::{try_run_kernel_profiled, StandaloneConfig};
use salam_obs::DepStream;

#[test]
fn streaming_decoder_agrees_with_value_path_on_all_nine_streams() {
    for bench in Bench::ALL {
        let kernel = bench.build_standard();
        let (_r, trace) = try_run_kernel_profiled(&kernel, &StandaloneConfig::default()).unwrap();
        let text = trace.to_json();
        let tree = salam_obs::json::parse(&text).unwrap();
        let old = DepStream::from_json_value(&tree).unwrap();
        let new = DepStream::from_json(&text).unwrap();
        assert_eq!(old, new, "{}", kernel.name);
        assert_eq!(new, trace, "{}", kernel.name);
        assert_eq!(new.to_json(), text, "{}", kernel.name);
        println!(
            "{}: {} ops, {} bytes agree",
            kernel.name,
            new.len(),
            text.len()
        );
    }
    let fixture = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/depstream_v1.json"
    ))
    .unwrap();
    let tree = salam_obs::json::parse(&fixture).unwrap();
    assert_eq!(
        DepStream::from_json_value(&tree).unwrap(),
        DepStream::from_json(&fixture).unwrap()
    );
}
