"""Vector-space ranking: the centralized TF×IDF baseline and PlanetP's
distributed TF×IPF approximation (paper Section 5.2), with the adaptive
stopping heuristic (eq. 4) and recall/precision evaluation (eqs. 5-6).
"""
