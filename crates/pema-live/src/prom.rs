//! A Prometheus `query_range` client over the minimal HTTP layer.
//!
//! One call = one `GET /api/v1/query_range` = one matrix result. The
//! live backend reduces each matrix to either a scalar (application
//! latency/throughput queries) or a per-`container` map (the three CPU
//! series of [`pema_trace::prom`]), averaging sample values over the
//! requested window.

use crate::http::{urlencode, Endpoint, HttpClient, HttpError, Response};
use pema_trace::json::{self, Value};

/// One series of a matrix response: the `container` label (empty when
/// absent) and the window-averaged sample value.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Value of the `container` label, or `""` for aggregate queries.
    pub container: String,
    /// Mean of the returned sample values over the window.
    pub value: f64,
}

/// Why a query produced no usable data. Separated from transport
/// errors so the retry policy can treat them differently (a malformed
/// body is retryable — a flaky proxy — but a `success` response with an
/// empty matrix is what it is).
#[derive(Debug, Clone, PartialEq)]
pub enum PromError {
    /// The HTTP exchange failed: connect, timeout, a broken connection
    /// ([`HttpError::Transport`]), or a response that is not HTTP.
    Http(HttpError),
    /// Well-formed HTTP, non-2xx status.
    Status(u16),
    /// 2xx body that does not parse as a Prometheus matrix response.
    Malformed(String),
}

impl std::fmt::Display for PromError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromError::Http(e) => write!(f, "prometheus: {e}"),
            PromError::Status(code) => write!(f, "prometheus returned HTTP {code}"),
            PromError::Malformed(e) => write!(f, "unparseable prometheus response: {e}"),
        }
    }
}

/// Client for one Prometheus server.
#[derive(Debug, Clone)]
pub struct PromClient {
    /// The Prometheus HTTP endpoint.
    pub endpoint: Endpoint,
    /// Transport with connect/read timeouts.
    pub http: HttpClient,
}

impl PromClient {
    /// Builds the `query_range` path for `query` over
    /// `[start_s, end_s]` with one sample per `step_s`.
    pub fn range_path(query: &str, start_s: f64, end_s: f64, step_s: f64) -> String {
        format!(
            "/api/v1/query_range?query={}&start={start_s}&end={end_s}&step={step_s}",
            urlencode(query)
        )
    }

    /// Runs one range query and reduces the matrix to per-series
    /// window means.
    pub fn query_range(
        &self,
        query: &str,
        start_s: f64,
        end_s: f64,
        step_s: f64,
    ) -> Result<Vec<Series>, PromError> {
        let path = Self::range_path(query, start_s, end_s, step_s);
        let resp = self
            .http
            .request(&self.endpoint, "GET", &path, &[], None)
            .map_err(PromError::Http)?;
        parse_matrix(&resp)
    }
}

/// Parses a Prometheus matrix response body into window-mean series.
pub fn parse_matrix(resp: &Response) -> Result<Vec<Series>, PromError> {
    if !resp.is_success() {
        return Err(PromError::Status(resp.status));
    }
    parse_matrix_body(&resp.body).map_err(PromError::Malformed)
}

fn parse_matrix_body(body: &str) -> Result<Vec<Series>, String> {
    let root = json::parse(body)?;
    let mut top = json::ObjReader::new(root)?;
    let status = json::read_string(&top.take("status")?)?;
    if status != "success" {
        return Err(format!("status \"{status}\""));
    }
    let mut data = json::ObjReader::new(top.take("data")?)?;
    let rt = json::read_string(&data.take("resultType")?)?;
    if rt != "matrix" {
        return Err(format!("resultType \"{rt}\" (want matrix)"));
    }
    let result = data.take("result")?;
    let result = result
        .as_array()
        .ok_or_else(|| "result is not an array".to_string())?;
    let mut out = Vec::with_capacity(result.len());
    for series in result {
        let mut s = json::ObjReader::new(series.clone())?;
        let container = match s.take_opt("metric") {
            Some(metric) => {
                let mut m = json::ObjReader::new(metric)?;
                m.take_opt("container")
                    .map(|v| json::read_string(&v))
                    .transpose()?
                    .unwrap_or_default()
            }
            None => String::new(),
        };
        let values = s.take("values")?;
        let values = values
            .as_array()
            .ok_or_else(|| "values is not an array".to_string())?;
        let mut sum = 0.0;
        let mut n = 0usize;
        for pair in values {
            let pair = pair
                .as_array()
                .ok_or_else(|| "sample is not a [ts, value] pair".to_string())?;
            if pair.len() != 2 {
                return Err("sample is not a [ts, value] pair".to_string());
            }
            sum += parse_sample(&pair[1])?;
            n += 1;
        }
        if n == 0 {
            continue; // series present but empty: treat as absent
        }
        out.push(Series {
            container,
            value: sum / n as f64,
        });
    }
    Ok(out)
}

/// Parses one Prometheus sample value: a decimal string, `"+Inf"`,
/// `"-Inf"`, or `"NaN"` (all of which Rust's `f64::from_str` accepts).
fn parse_sample(v: &Value) -> Result<f64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("sample value is {}, want string", v.kind()))?;
    s.parse::<f64>()
        .map_err(|_| format!("bad sample value \"{s}\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(body: &str) -> Response {
        Response {
            status: 200,
            body: body.to_string(),
        }
    }

    #[test]
    fn parses_matrix_with_container_labels_and_means() {
        let body = r#"{"status":"success","data":{"resultType":"matrix","result":[
            {"metric":{"container":"fe"},"values":[[0,"1.0"],[1,"3.0"]]},
            {"metric":{"container":"db"},"values":[[0,"+Inf"]]}
        ]}}"#;
        let series = parse_matrix(&ok(body)).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(
            series[0],
            Series {
                container: "fe".into(),
                value: 2.0
            }
        );
        assert_eq!(series[1].container, "db");
        assert!(series[1].value.is_infinite());
    }

    #[test]
    fn aggregate_series_have_empty_container() {
        let body = r#"{"status":"success","data":{"resultType":"matrix","result":[
            {"metric":{},"values":[[0,"0.125"]]}
        ]}}"#;
        let series = parse_matrix(&ok(body)).unwrap();
        assert_eq!(series[0].container, "");
        assert_eq!(series[0].value, 0.125);
    }

    #[test]
    fn rejects_errors_statuses_and_garbage() {
        assert_eq!(
            parse_matrix(&Response {
                status: 500,
                body: String::new()
            }),
            Err(PromError::Status(500))
        );
        assert!(matches!(
            parse_matrix(&ok("it's not even json")),
            Err(PromError::Malformed(_))
        ));
        assert!(matches!(
            parse_matrix(&ok(
                r#"{"status":"error","data":{"resultType":"matrix","result":[]}}"#
            )),
            Err(PromError::Malformed(_))
        ));
        assert!(matches!(
            parse_matrix(&ok(
                r#"{"status":"success","data":{"resultType":"vector","result":[]}}"#
            )),
            Err(PromError::Malformed(_))
        ));
    }

    #[test]
    fn display_names_the_target_and_the_http_failure() {
        let e = PromError::Http(HttpError::Transport("Connection reset by peer".into()));
        assert_eq!(
            e.to_string(),
            "prometheus: connection failed: Connection reset by peer"
        );
        let e = PromError::Http(HttpError::Malformed("bad status line".into()));
        assert_eq!(
            e.to_string(),
            "prometheus: malformed response: bad status line"
        );
    }

    #[test]
    fn range_path_encodes_the_query() {
        let p = PromClient::range_path("sum(rate(x[8s]))", 0.0, 8.0, 1.0);
        assert!(p.starts_with("/api/v1/query_range?query=sum%28rate%28x%5B8s%5D%29%29"));
        assert!(p.ends_with("&start=0&end=8&step=1"));
    }
}
