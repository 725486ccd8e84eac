//! Kubernetes CPU-limit actuation: strategic-merge PATCHes against the
//! deployments API, with bearer-token auth from a kubeconfig-lite
//! struct.
//!
//! The paper's actuator is `kubectl set resources` — a PATCH of
//! `spec.template.spec.containers[].resources.limits.cpu`. We speak
//! that wire format directly. CPU quantities are serialized as plain
//! decimal cores with Rust's shortest-round-trip formatting, so a value
//! read back from the recorded tape compares bit-equal to the one the
//! policy decided; a real API server additionally rounds to millicore
//! granularity (1m), which is below the controller's step sizes.

use crate::http::{Endpoint, HttpClient, HttpError};
use pema_trace::json;

/// The subset of a kubeconfig the live actuator needs. No YAML
/// parsing, no client certificates: host, bearer token, namespace.
#[derive(Debug, Clone)]
pub struct KubeConfigLite {
    /// API server endpoint (`http://host:port`).
    pub server: Endpoint,
    /// Bearer token sent as `Authorization: Bearer …`; `None` for
    /// unauthenticated local proxies (`kubectl proxy`).
    pub token: Option<String>,
    /// Namespace holding the application's deployments.
    pub namespace: String,
}

/// Errors from one actuation attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum KubeError {
    /// The HTTP exchange failed: connect, timeout, a broken connection
    /// ([`HttpError::Transport`]), or a response that is not HTTP.
    Http(HttpError),
    /// The API server rejected the PATCH.
    Status {
        /// HTTP status code.
        code: u16,
        /// Response body (the API server's Status message).
        body: String,
    },
    /// The API server answered 2xx, but the body is not the JSON
    /// object (the patched Deployment) a real server returns, so the
    /// PATCH cannot be taken as applied.
    Malformed(String),
}

impl std::fmt::Display for KubeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KubeError::Http(e) => write!(f, "kubernetes API: {e}"),
            KubeError::Status { code, body } => {
                write!(f, "kubernetes API returned HTTP {code}: {body}")
            }
            KubeError::Malformed(e) => write!(f, "unparseable kubernetes API response: {e}"),
        }
    }
}

/// Client for the deployments PATCH path.
#[derive(Debug, Clone)]
pub struct KubeClient {
    /// Connection parameters.
    pub config: KubeConfigLite,
    /// Transport with connect/read timeouts.
    pub http: HttpClient,
}

impl KubeClient {
    /// The PATCH path for `deployment` in the configured namespace.
    pub fn patch_path(&self, deployment: &str) -> String {
        format!(
            "/apis/apps/v1/namespaces/{}/deployments/{deployment}",
            self.config.namespace
        )
    }

    /// The strategic-merge-patch body setting `container`'s CPU limit.
    pub fn cpu_limit_body(container: &str, cores: f64) -> String {
        format!(
            concat!(
                r#"{{"spec":{{"template":{{"spec":{{"containers":"#,
                r#"[{{"name":{},"resources":{{"limits":{{"cpu":"{}"}}}}}}]}}}}}}}}"#
            ),
            json::quote(container),
            cores
        )
    }

    /// PATCHes one deployment's CPU limit. The deployment and its
    /// single app container are assumed to share the service name
    /// (the repo's manifests generate them that way). Only a 2xx whose
    /// body parses as a JSON object counts as applied.
    pub fn patch_cpu_limit(&self, service: &str, cores: f64) -> Result<(), KubeError> {
        let mut headers = Vec::new();
        if let Some(token) = &self.config.token {
            headers.push(("Authorization".to_string(), format!("Bearer {token}")));
        }
        let resp = self
            .http
            .request(
                &self.config.server,
                "PATCH",
                &self.patch_path(service),
                &headers,
                Some(&Self::cpu_limit_body(service, cores)),
            )
            .map_err(KubeError::Http)?;
        if !resp.is_success() {
            return Err(KubeError::Status {
                code: resp.status,
                body: resp.body,
            });
        }
        match json::parse(&resp.body) {
            Ok(json::Value::Obj(_)) => Ok(()),
            Ok(other) => Err(KubeError::Malformed(format!(
                "expected an object, got {}",
                other.kind()
            ))),
            Err(e) => Err(KubeError::Malformed(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> KubeClient {
        KubeClient {
            config: KubeConfigLite {
                server: Endpoint::parse("http://127.0.0.1:6443").unwrap(),
                token: Some("secret".into()),
                namespace: "pema".into(),
            },
            http: HttpClient::default(),
        }
    }

    #[test]
    fn display_names_the_target_and_the_http_failure() {
        let e = KubeError::Http(HttpError::Transport("Broken pipe".into()));
        assert_eq!(
            e.to_string(),
            "kubernetes API: connection failed: Broken pipe"
        );
    }

    #[test]
    fn patch_path_targets_the_namespaced_deployment() {
        assert_eq!(
            client().patch_path("frontend"),
            "/apis/apps/v1/namespaces/pema/deployments/frontend"
        );
    }

    #[test]
    fn cpu_limit_body_round_trips_cores_exactly() {
        let body = KubeClient::cpu_limit_body("fe", 1.35);
        let root = pema_trace::json::parse(&body).unwrap();
        // Walk spec.template.spec.containers[0].resources.limits.cpu.
        let mut v = &root;
        for key in ["spec", "template", "spec"] {
            let pema_trace::json::Value::Obj(fields) = v else {
                panic!("not an object at {key}")
            };
            v = &fields.iter().find(|(k, _)| k == key).unwrap().1;
        }
        let pema_trace::json::Value::Obj(fields) = v else {
            panic!()
        };
        let containers = fields.iter().find(|(k, _)| k == "containers").unwrap();
        let arr = containers.1.as_array().unwrap();
        let pema_trace::json::Value::Obj(c0) = &arr[0] else {
            panic!()
        };
        let name = c0.iter().find(|(k, _)| k == "name").unwrap();
        assert_eq!(name.1.as_str(), Some("fe"));
        let resources = &c0.iter().find(|(k, _)| k == "resources").unwrap().1;
        let pema_trace::json::Value::Obj(r) = resources else {
            panic!()
        };
        let pema_trace::json::Value::Obj(limits) =
            &r.iter().find(|(k, _)| k == "limits").unwrap().1
        else {
            panic!()
        };
        let cpu = limits.iter().find(|(k, _)| k == "cpu").unwrap();
        let parsed: f64 = cpu.1.as_str().unwrap().parse().unwrap();
        assert_eq!(parsed.to_bits(), 1.35f64.to_bits());
    }
}
