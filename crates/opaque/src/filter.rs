//! The candidate result path filter (§IV, Figure 6).
//!
//! The server answers an obfuscated query with candidate paths for *all*
//! `|S|×|T|` pairs. The filter — running inside the trusted obfuscator —
//! screens them, hands each client exactly the path answering its true
//! query, and discards the satisfied request ("for sake of security", §IV).
//!
//! The filter optionally re-verifies returned paths against the
//! obfuscator's own map, turning a tampering or map-skew problem into an
//! explicit [`OpaqueError::CorruptResult`] instead of a silently wrong
//! route. (The obfuscator's simple map lacks the server's live traffic
//! data, so verification uses edge existence and distance consistency, not
//! equality of the chosen route.)

use crate::error::{OpaqueError, Result};
use crate::obfuscator::ObfuscationUnit;
use crate::query::ClientId;
use pathsearch::{MsmdResult, Path};
use roadnet::RoadNetwork;

/// One delivered result: the client and the path answering its true query.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientResult {
    /// The client the path is delivered to.
    pub client: ClientId,
    /// The shortest path answering the client's true query.
    pub path: Path,
}

/// Extract each carried request's true path from the candidate matrix.
///
/// `verify_on` enables defensive re-verification of every delivered path
/// against the given map.
///
/// # Errors
/// * [`OpaqueError::MissingResult`] — the candidate matrix has no path for
///   a client's pair (disconnected endpoints or a misbehaving server);
/// * [`OpaqueError::CorruptResult`] — a delivered path fails verification
///   (wrong endpoints, non-adjacent hops, or inconsistent distance).
pub fn filter_candidates(
    unit: &ObfuscationUnit,
    candidates: &MsmdResult,
    verify_on: Option<&RoadNetwork>,
) -> Result<Vec<ClientResult>> {
    let mut out = Vec::with_capacity(unit.requests.len());
    for request in &unit.requests {
        let path = extract_path(unit, request, candidates, verify_on)?.ok_or(
            OpaqueError::MissingResult {
                source: request.query.source,
                destination: request.query.destination,
            },
        )?;
        out.push(ClientResult { client: request.client, path });
    }
    Ok(out)
}

/// Extract one carried request's true path from the candidate matrix.
///
/// Returns `Ok(None)` when the candidate entry for the pair is absent —
/// i.e. the pair is disconnected on the backend's map. The service layer
/// turns that into a per-client `Unreachable` outcome; [`filter_candidates`]
/// keeps its historical all-or-error contract by mapping it to
/// [`OpaqueError::MissingResult`].
///
/// # Errors
/// * [`OpaqueError::MissingResult`] — the unit does not embed the request
///   at all (a malformed unit is an obfuscator bug);
/// * [`OpaqueError::CorruptResult`] — the candidate path has wrong
///   endpoints, or fails map verification when `verify_on` is set.
pub fn extract_path(
    unit: &ObfuscationUnit,
    request: &crate::query::ClientRequest,
    candidates: &MsmdResult,
    verify_on: Option<&RoadNetwork>,
) -> Result<Option<Path>> {
    let at = locate_path(unit, request, candidates, verify_on)?;
    Ok(at.and_then(|(i, j)| candidates.paths[i][j].clone()))
}

/// [`extract_path`] for the unit's `k`-th request, moving the path out of
/// its candidate row instead of cloning it. A later request of the unit
/// that asks for the same pair reads the same entry, so for all but the
/// last such request the path is cloned and left in place.
pub(crate) fn take_path(
    unit: &ObfuscationUnit,
    k: usize,
    candidates: &mut MsmdResult,
    verify_on: Option<&RoadNetwork>,
) -> Result<Option<Path>> {
    let request = &unit.requests[k];
    let Some((i, j)) = locate_path(unit, request, candidates, verify_on)? else {
        return Ok(None);
    };
    let entry = &mut candidates.paths[i][j];
    let asked_again = unit.requests[k + 1..].iter().any(|r| r.query == request.query);
    Ok(if asked_again { entry.clone() } else { entry.take() })
}

/// Where the checked path answering `request` sits in `candidates`, as
/// `paths[i][j]`; `None` when that entry is absent. Errors as
/// [`extract_path`].
fn locate_path(
    unit: &ObfuscationUnit,
    request: &crate::query::ClientRequest,
    candidates: &MsmdResult,
    verify_on: Option<&RoadNetwork>,
) -> Result<Option<(usize, usize)>> {
    let q = request.query;
    let (i, j) = match (unit.query.source_index(q.source), unit.query.target_index(q.destination)) {
        (Some(i), Some(j)) => (i, j),
        _ => {
            return Err(OpaqueError::MissingResult {
                source: q.source,
                destination: q.destination,
            });
        }
    };
    let Some(path) = candidates.paths[i][j].as_ref() else {
        return Ok(None);
    };
    let endpoints_ok = path.source() == q.source && path.destination() == q.destination;
    if !endpoints_ok {
        return Err(OpaqueError::CorruptResult { source: q.source, destination: q.destination });
    }
    if let Some(map) = verify_on {
        if !path.verify(map, 1e-6) {
            return Err(OpaqueError::CorruptResult {
                source: q.source,
                destination: q.destination,
            });
        }
    }
    Ok(Some((i, j)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obfuscator::{FakeSelection, Obfuscator};
    use crate::query::{ClientRequest, PathQuery, ProtectionSettings};
    use crate::server::DirectionsServer;
    use pathsearch::SharingPolicy;
    use roadnet::NodeId;
    use roadnet::generators::{GridConfig, grid_network};

    fn pipeline() -> (Obfuscator, DirectionsServer<roadnet::RoadNetwork>) {
        let map =
            grid_network(&GridConfig { width: 15, height: 15, seed: 4, ..Default::default() })
                .unwrap();
        let server = DirectionsServer::new(map.clone(), SharingPolicy::PerSource);
        (Obfuscator::new(map, FakeSelection::default_ring(), 7), server)
    }

    fn request(i: u32, s: u32, t: u32) -> ClientRequest {
        ClientRequest::new(
            ClientId(i),
            PathQuery::new(NodeId(s), NodeId(t)),
            ProtectionSettings::new(3, 3).unwrap(),
        )
    }

    #[test]
    fn filter_returns_exactly_the_true_paths() {
        let (mut ob, mut sv) = pipeline();
        let reqs = vec![request(0, 0, 224), request(1, 14, 210)];
        let unit = ob.obfuscate_shared(&reqs).unwrap();
        let candidates = sv.process(&unit.query);
        let results = filter_candidates(&unit, &candidates, Some(ob.map())).unwrap();
        assert_eq!(results.len(), 2);
        for (res, req) in results.iter().zip(&reqs) {
            assert_eq!(res.client, req.client);
            assert_eq!(res.path.source(), req.query.source);
            assert_eq!(res.path.destination(), req.query.destination);
            // And the delivered path is genuinely shortest.
            let direct =
                pathsearch::shortest_path(ob.map(), req.query.source, req.query.destination)
                    .unwrap();
            assert!((res.path.distance() - direct.distance()).abs() < 1e-9);
        }
    }

    #[test]
    fn missing_candidate_is_reported() {
        let (mut ob, mut sv) = pipeline();
        let reqs = vec![request(0, 0, 224)];
        let unit = ob.obfuscate_shared(&reqs).unwrap();
        let mut candidates = sv.process(&unit.query);
        // Sabotage: drop the true pair's path.
        let i = unit.query.source_index(NodeId(0)).unwrap();
        let j = unit.query.target_index(NodeId(224)).unwrap();
        candidates.paths[i][j] = None;
        let err = filter_candidates(&unit, &candidates, None).unwrap_err();
        assert!(matches!(err, OpaqueError::MissingResult { .. }));
    }

    #[test]
    fn tampered_path_is_caught_by_verification() {
        let (mut ob, mut sv) = pipeline();
        let reqs = vec![request(0, 0, 224)];
        let unit = ob.obfuscate_shared(&reqs).unwrap();
        let mut candidates = sv.process(&unit.query);
        let i = unit.query.source_index(NodeId(0)).unwrap();
        let j = unit.query.target_index(NodeId(224)).unwrap();
        // Inflate the reported distance: endpoints still match, so only
        // map verification can catch it.
        let original = candidates.paths[i][j].as_ref().unwrap();
        let tampered = Path::new(original.nodes().to_vec(), original.distance() + 100.0);
        candidates.paths[i][j] = Some(tampered);
        assert!(filter_candidates(&unit, &candidates, None).is_ok(), "no verify → accepted");
        let err = filter_candidates(&unit, &candidates, Some(ob.map())).unwrap_err();
        assert!(matches!(err, OpaqueError::CorruptResult { .. }));
    }

    #[test]
    fn wrong_endpoints_are_caught_without_verification() {
        let (mut ob, mut sv) = pipeline();
        let reqs = vec![request(0, 0, 224)];
        let unit = ob.obfuscate_shared(&reqs).unwrap();
        let mut candidates = sv.process(&unit.query);
        let i = unit.query.source_index(NodeId(0)).unwrap();
        let j = unit.query.target_index(NodeId(224)).unwrap();
        candidates.paths[i][j] = Some(Path::new(vec![NodeId(3)], 0.0));
        let err = filter_candidates(&unit, &candidates, None).unwrap_err();
        assert!(matches!(err, OpaqueError::CorruptResult { .. }));
    }
}
