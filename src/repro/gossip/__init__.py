"""PlanetP's gossiping layer (paper Section 3).

The protocol is a combination of *rumor mongering* (push) and
*anti-entropy* (pull) after Demers et al., extended with the paper's novel
*partial anti-entropy* piggyback, an adaptive gossip interval, and an
optional bandwidth-aware peer-selection policy.  The package contains both
the protocol logic (:mod:`simpeer`) and the scenario runners that
reproduce the paper's gossip experiments (:mod:`simulation`).
"""
