"""Inference resource-usage predictor (NumPy LSTM, §6)."""
