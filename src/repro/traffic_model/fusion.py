"""Fusing crowd answers into the traffic model's observations.

Section 2: "The traffic modelling component may also use the
crowdsourced information to resolve data sparsity", and Section 6: the
technique "is designed to be general enough that any additional
sources that can provide congestion information at specific locations
can be incorporated in the training, including, specifically, the
results of the crowdsourcing component."

A crowd answer is categorical (congestion / no congestion at a
location), not a flow reading; it is folded in as a *pseudo
observation*: a positive answer pins the junction near the congested
branch of the fundamental diagram, a negative one near free flow
(``repro.system.crowdloop`` feeds them to the flow estimator).
"""

#: Default pseudo-observation levels (veh/h) for crowd answers, chosen
#: on the congested / free-flow branches of the fundamental diagram
#: used by the Dublin substrate.
CONGESTED_FLOW = 350.0
FREE_FLOW = 1100.0
