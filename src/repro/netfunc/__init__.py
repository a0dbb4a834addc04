"""Network functions: digital (lookup, firewall) and cognitive
(AQM, load balancing, traffic-analysis flow features)."""

from repro.netfunc.decision_tree import CARTTree
from repro.netfunc.firewall import Action, Firewall, FirewallRule
from repro.netfunc.load_balancer import Backend, PCAMLoadBalancer
from repro.netfunc.lookup import IPLookup, Route
from repro.netfunc.pattern_match import Match, PatternMatcher
from repro.netfunc.traffic_analysis import FlowFeatures

__all__ = [
    "Action",
    "Backend",
    "CARTTree",
    "Match",
    "PatternMatcher",
    "Firewall",
    "FirewallRule",
    "FlowFeatures",
    "IPLookup",
    "PCAMLoadBalancer",
    "Route",
]
