"""Closed-form CRS transforms (SURVEY §2.2 M16).

The reference round-trips 4326↔3395 for metric tessellation
(``_parcels.py:34-35,48``) and buffers in 3395 metres
(``split_buildings.py:125``). EPSG:3395 is World Mercator on the WGS84
ellipsoid — a pure formula, vectorized here (no proj dependency).
"""
from __future__ import annotations

import numpy as np

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_E = np.sqrt(WGS84_F * (2 - WGS84_F))


def lnglat_to_mercator(lng_deg, lat_deg):
    """EPSG:4326 → EPSG:3395 (metres), ellipsoidal Mercator."""
    lng = np.radians(np.asarray(lng_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    x = WGS84_A * lng
    e = WGS84_E
    esin = e * np.sin(lat)
    y = WGS84_A * np.log(np.tan(np.pi / 4 + lat / 2) *
                         ((1 - esin) / (1 + esin)) ** (e / 2))
    return x, y


def mercator_to_lnglat(x, y, iters: int = 8):
    """EPSG:3395 → EPSG:4326; latitude via fixed-point iteration of the
    inverse isometric-latitude relation (converges quadratically)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lng = np.degrees(x / WGS84_A)
    t = np.exp(-y / WGS84_A)
    lat = np.pi / 2 - 2 * np.arctan(t)
    e = WGS84_E
    for _ in range(iters):
        esin = e * np.sin(lat)
        lat = np.pi / 2 - 2 * np.arctan(
            t * ((1 - esin) / (1 + esin)) ** (e / 2))
    return lng, np.degrees(lat)


def haversine_m(lng0, lat0, lng1, lat1):
    """Great-circle distance in metres (vectorized haversine on the WGS84
    mean sphere).  Engine twin of the reference's geodesic
    ``distance_meters`` (``_reblock_graph.py:76-82``, geopy): used only as
    a DIAGNOSTIC (terminal projection distance, ref ``:552``), never in
    graph weights — the reference also weights in raw degrees — so the
    ≤0.5% spherical-vs-ellipsoidal divergence is immaterial."""
    r = 6371008.8  # IUGG mean earth radius
    la0 = np.radians(np.asarray(lat0, dtype=np.float64))
    la1 = np.radians(np.asarray(lat1, dtype=np.float64))
    dla = la1 - la0
    dlo = np.radians(np.asarray(lng1, dtype=np.float64)) - \
        np.radians(np.asarray(lng0, dtype=np.float64))
    a = np.sin(dla / 2) ** 2 + np.cos(la0) * np.cos(la1) * np.sin(dlo / 2) ** 2
    return 2 * r * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
