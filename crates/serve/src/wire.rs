//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request. The same encoding
//! backs the TCP listener and the HTTP shim in [`crate::server`], and the
//! client half lives in `salam_client`. Parsing rides on
//! [`salam_obs::json`] — std-only, no external dependencies.
//!
//! Requests (`op` selects the operation):
//!
//! ```json
//! {"op":"submit","tenant":"alice","job":{"type":"kernel","bench":"gemm","knobs":{"ports":2},"trace":false}}
//! {"op":"submit","tenant":"alice","job":{"type":"faulted","bench":"spmv","plan":{"seed":7,"mem_delay_rate":0.01}}}
//! {"op":"submit","tenant":"bob","job":{"type":"sweep","name":"ports","kernels":["gemm"],"axes":[{"knob":"ports","values":[1,2,4]}]}}
//! {"op":"submit","tenant":"alice","deadline_ms":5000,"job":{"type":"kernel","bench":"gemm"}}
//! {"op":"status","id":3}
//! {"op":"wait","id":3}
//! {"op":"cancel","id":3}
//! {"op":"result","id":3,"artifact":"report"}
//! {"op":"metrics"}
//! {"op":"metrics","format":"prom"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"`; failures add a stable `code`.

use salam_fault::FaultPlan;
use salam_obs::json::{self, escape, Value};

use crate::job::{JobId, JobRequest, JobStatus, Rejection, WireAxis};

/// One decoded request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit a job for a tenant.
    Submit {
        /// Submitting tenant.
        tenant: String,
        /// The job payload.
        job: JobRequest,
        /// Optional end-to-end deadline, milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Snapshot one job's status.
    Status(JobId),
    /// Block until the job is terminal, then return its status.
    Wait(JobId),
    /// Request cooperative cancellation; returns the job's status.
    Cancel(JobId),
    /// Fetch one artifact of a terminal job.
    Result {
        /// The job.
        id: JobId,
        /// `report` / `trace` / `csv` / `table` / `error` / `lint` /
        /// `postmortem`.
        artifact: String,
    },
    /// Dump the server metrics registry (JSON gauges).
    Metrics,
    /// Dump the metrics in Prometheus text exposition format. The text
    /// rides back as a JSON string under `"prom"` on the native protocol;
    /// the HTTP shim serves it raw as `GET /metrics?format=prom`.
    MetricsProm,
    /// The one-line server summary.
    Stats,
    /// Stop accepting jobs and shut the server down.
    Shutdown,
}

fn need_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

/// A JSON number that is a non-negative integer an f64 holds exactly —
/// at most 2^53. Anything larger has already lost precision in the
/// parser, and near `u64::MAX` it would overflow an id's `+ 1`.
fn exact_u64(v: &Value) -> Option<u64> {
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0;
    v.as_f64()
        .filter(|f| (0.0..=MAX_EXACT).contains(f) && f.fract() == 0.0)
        .map(|f| f as u64)
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(exact_u64)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

/// An optional non-negative integer field; present-but-malformed is an
/// error, absent (or null) is `None`.
fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(val) => exact_u64(val)
            .map(Some)
            .ok_or_else(|| format!("'{key}' must be a non-negative integer")),
    }
}

fn knob_pairs(v: &Value) -> Result<Vec<(String, u64)>, String> {
    let Some(knobs) = v.get("knobs") else {
        return Ok(Vec::new());
    };
    let obj = knobs
        .as_object()
        .ok_or_else(|| "'knobs' must be an object of name: value".to_string())?;
    obj.iter()
        .map(|(k, val)| {
            exact_u64(val)
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("knob '{k}' must be a non-negative integer"))
        })
        .collect()
}

fn fault_plan(v: &Value) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::default();
    let Some(spec) = v.get("plan") else {
        return Ok(plan);
    };
    let obj = spec
        .as_object()
        .ok_or_else(|| "'plan' must be an object".to_string())?;
    for (k, val) in obj {
        let f = val
            .as_f64()
            .ok_or_else(|| format!("plan field '{k}' must be a number"))?;
        match k.as_str() {
            // Assign the field alone: replacing the plan here would zero
            // every rate parsed before "seed", and JSON key order is not
            // semantically significant.
            "seed" => plan.seed = f as u64,
            "fu_bitflip_rate" => plan.fu_bitflip_rate = f,
            "fu_flip_any" => plan.fu_flip_any = f != 0.0,
            "fu_jitter_rate" => plan.fu_jitter_rate = f,
            "fu_jitter_cycles" => plan.fu_jitter_cycles = f as u32,
            "mem_bitflip_rate" => plan.mem_bitflip_rate = f,
            "mem_delay_rate" => plan.mem_delay_rate = f,
            "mem_delay_cycles" => plan.mem_delay_cycles = f as u64,
            "mem_drop_rate" => plan.mem_drop_rate = f,
            "port_busy_rate" => plan.port_busy_rate = f,
            "dma_stall_rate" => plan.dma_stall_rate = f,
            "dma_stall_cycles" => plan.dma_stall_cycles = f as u64,
            other => return Err(format!("unknown plan field '{other}'")),
        }
    }
    Ok(plan)
}

fn job_request(v: &Value) -> Result<JobRequest, String> {
    let job = v.get("job").ok_or("missing 'job' object")?;
    match need_str(job, "type")?.as_str() {
        "kernel" => Ok(JobRequest::Kernel {
            bench: need_str(job, "bench")?,
            knobs: knob_pairs(job)?,
            trace: job.get("trace").and_then(Value::as_bool).unwrap_or(false),
        }),
        "faulted" => Ok(JobRequest::Faulted {
            bench: need_str(job, "bench")?,
            knobs: knob_pairs(job)?,
            plan: fault_plan(job)?,
        }),
        "sweep" => {
            let kernels = job
                .get("kernels")
                .and_then(Value::as_array)
                .ok_or("sweep needs a 'kernels' array")?
                .iter()
                .map(|k| {
                    k.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "kernel ids must be strings".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            let axes = job
                .get("axes")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|ax| {
                    let knob = need_str(ax, "knob")?;
                    let values = ax
                        .get("values")
                        .and_then(Value::as_array)
                        .ok_or_else(|| format!("axis '{knob}' needs a 'values' array"))?
                        .iter()
                        .map(|n| {
                            exact_u64(n).ok_or_else(|| {
                                format!("axis '{knob}' values must be non-negative integers")
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(WireAxis { knob, values })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(JobRequest::Sweep {
                name: need_str(job, "name")?,
                kernels,
                axes,
                replay: job.get("replay").and_then(Value::as_bool).unwrap_or(false),
            })
        }
        other => Err(format!("unknown job type '{other}'")),
    }
}

/// Decodes one request line.
///
/// # Errors
///
/// A message describing the malformed field; the server answers it as a
/// `bad-request` response without touching the core.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line)?;
    match need_str(&v, "op")?.as_str() {
        "submit" => submit_request(&v),
        "status" => Ok(Request::Status(need_u64(&v, "id")?)),
        "wait" => Ok(Request::Wait(need_u64(&v, "id")?)),
        "cancel" => Ok(Request::Cancel(need_u64(&v, "id")?)),
        "result" => Ok(Request::Result {
            id: need_u64(&v, "id")?,
            artifact: need_str(&v, "artifact")?,
        }),
        "metrics" => match v.get("format").and_then(Value::as_str) {
            None => Ok(Request::Metrics),
            Some("prom") => Ok(Request::MetricsProm),
            Some(other) => Err(format!("unknown metrics format '{other}'")),
        },
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// Decodes an HTTP `POST /submit` body: the same shape as the `submit`
/// op minus the `op` field, decoded into the same [`Request::Submit`].
///
/// # Errors
///
/// A message describing the malformed field.
pub fn parse_submit_body(text: &str) -> Result<Request, String> {
    submit_request(&json::parse(text)?)
}

fn submit_request(v: &Value) -> Result<Request, String> {
    Ok(Request::Submit {
        tenant: need_str(v, "tenant")?,
        job: job_request(v)?,
        deadline_ms: opt_u64(v, "deadline_ms")?,
    })
}

/// Encodes a [`JobRequest`] as its wire `job` object — the exact shape
/// [`parse_request`] accepts, so journaled jobs round-trip through the
/// same parser the TCP listener uses.
pub fn job_json(job: &JobRequest) -> String {
    let knobs_json = |knobs: &[(String, u64)]| {
        let body = knobs
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{{body}}}")
    };
    match job {
        JobRequest::Kernel {
            bench,
            knobs,
            trace,
        } => format!(
            "{{\"type\": \"kernel\", \"bench\": \"{}\", \"knobs\": {}, \"trace\": {trace}}}",
            escape(bench),
            knobs_json(knobs)
        ),
        JobRequest::Faulted { bench, knobs, plan } => format!(
            "{{\"type\": \"faulted\", \"bench\": \"{}\", \"knobs\": {}, \"plan\": \
             {{\"seed\": {}, \"fu_bitflip_rate\": {}, \"fu_flip_any\": {}, \
             \"fu_jitter_rate\": {}, \"fu_jitter_cycles\": {}, \"mem_bitflip_rate\": {}, \
             \"mem_delay_rate\": {}, \"mem_delay_cycles\": {}, \"mem_drop_rate\": {}, \
             \"port_busy_rate\": {}, \"dma_stall_rate\": {}, \"dma_stall_cycles\": {}}}}}",
            escape(bench),
            knobs_json(knobs),
            plan.seed,
            plan.fu_bitflip_rate,
            // The parser reads every plan field as a number.
            u8::from(plan.fu_flip_any),
            plan.fu_jitter_rate,
            plan.fu_jitter_cycles,
            plan.mem_bitflip_rate,
            plan.mem_delay_rate,
            plan.mem_delay_cycles,
            plan.mem_drop_rate,
            plan.port_busy_rate,
            plan.dma_stall_rate,
            plan.dma_stall_cycles,
        ),
        JobRequest::Sweep {
            name,
            kernels,
            axes,
            replay,
        } => {
            let ks = kernels
                .iter()
                .map(|k| format!("\"{}\"", escape(k)))
                .collect::<Vec<_>>()
                .join(", ");
            let axs = axes
                .iter()
                .map(|a| {
                    let vals = a
                        .values
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!(
                        "{{\"knob\": \"{}\", \"values\": [{vals}]}}",
                        escape(&a.knob)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "{{\"type\": \"sweep\", \"name\": \"{}\", \"kernels\": [{ks}], \
                 \"axes\": [{axs}], \"replay\": {replay}}}",
                escape(name)
            )
        }
    }
}

/// A journaled admission, as recovered from one `admit` line.
#[derive(Debug, Clone)]
pub struct JournalAdmit {
    /// The job's original server-assigned id (reused on recovery).
    pub id: JobId,
    /// Submitting tenant.
    pub tenant: String,
    /// The submission's deadline option.
    pub deadline_ms: Option<u64>,
    /// The job payload.
    pub job: JobRequest,
}

/// One decoded crash-recovery journal line.
#[derive(Debug, Clone)]
pub enum JournalEvent {
    /// A job was admitted.
    Admit(JournalAdmit),
    /// A job reached a terminal state (will not be re-admitted).
    Terminal {
        /// The job.
        id: JobId,
    },
}

/// One journal `admit` line (newline-free; the journal appends one).
pub fn journal_admit_line(
    id: JobId,
    tenant: &str,
    deadline_ms: Option<u64>,
    job: &JobRequest,
) -> String {
    let deadline = deadline_ms.map_or("null".to_string(), |ms| ms.to_string());
    format!(
        "{{\"event\": \"admit\", \"id\": {id}, \"tenant\": \"{}\", \
         \"deadline_ms\": {deadline}, \"job\": {}}}",
        escape(tenant),
        job_json(job)
    )
}

/// One journal `terminal` line.
pub fn journal_terminal_line(id: JobId) -> String {
    format!("{{\"event\": \"terminal\", \"id\": {id}}}")
}

/// Decodes one journal line.
///
/// # Errors
///
/// A message describing the malformed line; recovery skips it with a
/// warning rather than refusing to start.
pub fn parse_journal_line(line: &str) -> Result<JournalEvent, String> {
    let v = json::parse(line)?;
    match need_str(&v, "event")?.as_str() {
        "admit" => Ok(JournalEvent::Admit(JournalAdmit {
            id: need_u64(&v, "id")?,
            tenant: need_str(&v, "tenant")?,
            deadline_ms: opt_u64(&v, "deadline_ms")?,
            job: job_request(&v)?,
        })),
        "terminal" => Ok(JournalEvent::Terminal {
            id: need_u64(&v, "id")?,
        }),
        other => Err(format!("unknown journal event '{other}'")),
    }
}

/// `{"ok": true, "id": N}` — a successful submission.
pub fn submit_ok(id: JobId) -> String {
    format!("{{\"ok\": true, \"id\": {id}}}")
}

/// A rejection response; `code` is the stable rejection code, the
/// verifier diagnostics ride along verbatim, and shed/circuit-open
/// refusals carry their retry hint.
pub fn rejection_json(r: &Rejection) -> String {
    let retry = r
        .retry_after_ms
        .map_or("null".to_string(), |ms| ms.to_string());
    format!(
        "{{\"ok\": false, \"code\": \"{}\", \"message\": \"{}\", \"retry_after_ms\": {retry}, \
         \"diagnostics\": {}}}",
        escape(r.code),
        escape(&r.message),
        salam_verify::to_json(&r.diagnostics)
    )
}

/// A generic failure response.
pub fn err_json(code: &str, message: &str) -> String {
    format!(
        "{{\"ok\": false, \"code\": \"{}\", \"message\": \"{}\"}}",
        escape(code),
        escape(message)
    )
}

/// A status response.
pub fn status_json(s: &JobStatus) -> String {
    let complete = s.complete_seq.map_or("null".to_string(), |c| c.to_string());
    let detail = s
        .detail
        .as_deref()
        .map_or("null".to_string(), |d| format!("\"{}\"", escape(d)));
    format!(
        "{{\"ok\": true, \"status\": {{\"id\": {}, \"tenant\": \"{}\", \"kind\": \"{}\", \
         \"state\": \"{}\", \"submit_seq\": {}, \"complete_seq\": {complete}, \
         \"detail\": {detail}}}}}",
        s.id,
        escape(&s.tenant),
        escape(s.kind),
        s.state.name(),
        s.submit_seq,
    )
}

/// An artifact response; the artifact rides as a JSON string so CSV and
/// JSON artifacts are carried uniformly.
pub fn artifact_json(text: &str) -> String {
    format!("{{\"ok\": true, \"artifact\": \"{}\"}}", escape(text))
}

/// Embeds an already-JSON payload under `key`.
pub fn raw_ok(key: &str, raw_json: &str) -> String {
    format!("{{\"ok\": true, \"{}\": {raw_json}}}", escape(key))
}

/// `{"ok": true}`.
pub fn ok_json() -> String {
    "{\"ok\": true}".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let r = parse_request(
            r#"{"op":"submit","tenant":"alice","job":{"type":"kernel","bench":"gemm","knobs":{"ports":2},"trace":true}}"#,
        )
        .unwrap();
        match r {
            Request::Submit {
                tenant,
                job,
                deadline_ms,
            } => {
                assert_eq!(tenant, "alice");
                assert_eq!(deadline_ms, None);
                match job {
                    JobRequest::Kernel {
                        bench,
                        knobs,
                        trace,
                    } => {
                        assert_eq!(bench, "gemm");
                        assert_eq!(knobs, vec![("ports".to_string(), 2)]);
                        assert!(trace);
                    }
                    other => panic!("wrong job: {other:?}"),
                }
            }
            other => panic!("wrong request: {other:?}"),
        }

        let r = parse_request(
            r#"{"op":"submit","tenant":"t","job":{"type":"faulted","bench":"spmv","plan":{"seed":7,"mem_delay_rate":0.5,"mem_delay_cycles":3}}}"#,
        )
        .unwrap();
        match r {
            Request::Submit {
                job: JobRequest::Faulted { plan, .. },
                ..
            } => {
                assert_eq!(plan.seed, 7);
                assert!((plan.mem_delay_rate - 0.5).abs() < 1e-12);
                assert_eq!(plan.mem_delay_cycles, 3);
            }
            other => panic!("wrong request: {other:?}"),
        }

        let r = parse_request(
            r#"{"op":"submit","tenant":"t","job":{"type":"sweep","name":"s","kernels":["gemm","spmv"],"axes":[{"knob":"ports","values":[1,2]}]}}"#,
        )
        .unwrap();
        match r {
            Request::Submit {
                job:
                    JobRequest::Sweep {
                        kernels,
                        axes,
                        replay,
                        ..
                    },
                ..
            } => {
                assert_eq!(kernels, vec!["gemm", "spmv"]);
                assert_eq!(axes.len(), 1);
                assert_eq!(axes[0].values, vec![1, 2]);
                assert!(!replay, "replay defaults to off");
            }
            other => panic!("wrong request: {other:?}"),
        }

        let r = parse_request(
            r#"{"op":"submit","tenant":"t","job":{"type":"sweep","name":"s","kernels":["gemm"],"replay":true,"axes":[{"knob":"ports","values":[1,2]}]}}"#,
        )
        .unwrap();
        match r {
            Request::Submit {
                job: JobRequest::Sweep { replay, .. },
                ..
            } => assert!(replay, "replay knob parsed"),
            other => panic!("wrong request: {other:?}"),
        }

        assert!(matches!(
            parse_request(r#"{"op":"status","id":3}"#).unwrap(),
            Request::Status(3)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"wait","id":4}"#).unwrap(),
            Request::Wait(4)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"result","id":1,"artifact":"report"}"#).unwrap(),
            Request::Result { id: 1, .. }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        ));
        assert!(matches!(
            parse_request(r#"{"op":"metrics","format":"prom"}"#).unwrap(),
            Request::MetricsProm
        ));
        assert!(parse_request(r#"{"op":"metrics","format":"xml"}"#).is_err());
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
        assert!(parse_request(r#"{"op":"nope"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn fault_plan_fields_survive_any_key_order() {
        // "seed" last — where an alphabetical serializer puts it — must not
        // reset the rate fields parsed before it.
        let r = parse_request(
            r#"{"op":"submit","tenant":"t","job":{"type":"faulted","bench":"spmv","plan":{"dma_stall_rate":0.25,"mem_bitflip_rate":0.125,"seed":9}}}"#,
        )
        .unwrap();
        match r {
            Request::Submit {
                job: JobRequest::Faulted { plan, .. },
                ..
            } => {
                assert_eq!(plan.seed, 9);
                assert!((plan.dma_stall_rate - 0.25).abs() < 1e-12);
                assert!((plan.mem_bitflip_rate - 0.125).abs() < 1e-12);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn responses_are_valid_json() {
        use salam_obs::json;
        let esc = escape("a\"b\\c\nd");
        assert_eq!(esc, "a\\\"b\\\\c\\nd");
        for text in [
            submit_ok(7),
            err_json("bad-request", "oops \"quoted\""),
            artifact_json("kernel,cycles\ngemm,12\n"),
            raw_ok("metrics", "{\"a\": 1}"),
            ok_json(),
        ] {
            let v = json::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(v.get("ok").is_some(), "{text}");
        }
    }
}
